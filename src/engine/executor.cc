#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace sam {

namespace {

/// Runs `eval_range` over min(n, `shards`) contiguous static shards of
/// [0, n) on the shared worker set (inline for one shard), bumps
/// `sam.exec.queries` per finished shard, and returns the first error in
/// shard order.
Status RunShards(size_t n, size_t shards,
                 const std::function<Status(size_t, size_t)>& eval_range) {
  // Instrumentation stays per-shard, not per-query: the per-query loop is
  // the hot path the <1% disabled-overhead budget protects.
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("sam.exec.queries");
  shards = std::max<size_t>(1, std::min(n, shards));
  // Each shard owns one scratch and one slice of the output, so no
  // synchronisation is needed beyond the loop's join.
  std::vector<Status> shard_status(shards, Status::OK());
  auto run = [&](size_t s) {
    const size_t begin = n * s / shards;
    const size_t end = n * (s + 1) / shards;
    shard_status[s] = eval_range(begin, end);
    if (shard_status[s].ok()) queries->Add(end - begin);
  };
  if (shards <= 1) {
    run(0);
  } else {
    SharedThreadPool().ParallelFor(shards, run);
  }
  for (const Status& st : shard_status) {
    SAM_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Executor>> Executor::Create(const Database* db) {
  auto exec = std::unique_ptr<Executor>(new Executor(db));
  SAM_RETURN_NOT_OK(exec->Init());
  return exec;
}

Status Executor::Init() {
  SAM_ASSIGN_OR_RETURN(graph_, db_->BuildJoinGraph());
  for (const auto& e : graph_.edges()) {
    const Table* child = db_->FindTable(e.child);
    if (child == nullptr) {
      return Status::NotFound("join edge child table '" + e.child + "'");
    }
    const Column* fk = child->FindColumn(e.child_column);
    if (fk == nullptr) {
      return Status::NotFound("FK column '" + e.child + "." + e.child_column +
                              "'");
    }
    const Table* parent = db_->FindTable(e.parent);
    if (parent == nullptr) {
      return Status::NotFound("join edge parent table '" + e.parent + "'");
    }
    const Column* pk = parent->FindColumn(e.parent_column);
    if (pk == nullptr) {
      return Status::NotFound("PK column '" + e.parent + "." + e.parent_column +
                              "'");
    }

    // Decode both join columns exactly once into dense slot arrays: they
    // feed every cardinality evaluation and the FOJ materialiser.
    EdgeArrays arrays;
    arrays.child_slots.resize(fk->num_rows());
    std::unordered_map<int64_t, int32_t> slot_of;
    slot_of.reserve(fk->dict_size());
    for (size_t r = 0; r < fk->num_rows(); ++r) {
      const Value v = fk->ValueAt(r);
      if (v.is_null()) {
        arrays.child_slots[r] = -1;
        continue;
      }
      const auto [it, inserted] = slot_of.try_emplace(
          v.AsInt(), static_cast<int32_t>(slot_of.size()));
      arrays.child_slots[r] = it->second;
    }
    arrays.num_slots = slot_of.size();
    arrays.parent_slots.resize(pk->num_rows());
    for (size_t r = 0; r < pk->num_rows(); ++r) {
      const Value v = pk->ValueAt(r);
      if (v.is_null()) {
        arrays.parent_slots[r] = -1;
        continue;
      }
      const auto it = slot_of.find(v.AsInt());
      arrays.parent_slots[r] = it == slot_of.end() ? -1 : it->second;
    }
    edge_arrays_.emplace(e.child, std::move(arrays));
  }
  return Status::OK();
}

Status Executor::SubtreeWeights(const std::string& table,
                                const std::vector<std::string>& rels,
                                bool outer,
                                engine::EvalScratch* scratch) const {
  const Table* t = db_->FindTable(table);
  if (t == nullptr) return Status::NotFound("table '" + table + "'");
  // References into scratch maps stay valid across the recursion: the maps
  // are node-based, so rehashing never moves the vectors.
  std::vector<double>& w = scratch->weights[table];
  const auto sat_it = scratch->sat.find(table);
  if (sat_it != scratch->sat.end()) {
    w.resize(t->num_rows());
    sat_it->second.ExpandTo(w.data());
  } else {
    w.assign(t->num_rows(), 1.0);
  }
  for (const auto& child : graph_.Children(table)) {
    const bool child_in_query =
        std::find(rels.begin(), rels.end(), child) != rels.end();
    if (!child_in_query && !outer) continue;
    // An FOJ still multiplies by the child's expansion even without
    // predicates, so `outer` traverses children outside `rels` too.
    SAM_RETURN_NOT_OK(SubtreeWeights(child, rels, outer, scratch));
    const std::vector<double>& wc = scratch->weights[child];
    const EdgeArrays& edge = edge_arrays_.at(child);
    // Aggregate child weights per dense key slot (tight loops over the
    // pre-decoded arrays; same accumulation order as the rows).
    std::vector<double>& agg = scratch->agg[child];
    agg.assign(edge.num_slots, 0.0);
    const int32_t* child_slots = edge.child_slots.data();
    for (size_t r = 0; r < wc.size(); ++r) {
      if (wc[r] == 0.0) continue;
      if (child_slots[r] >= 0) agg[child_slots[r]] += wc[r];
    }
    const int32_t* parent_slots = edge.parent_slots.data();
    for (size_t r = 0; r < w.size(); ++r) {
      if (w[r] == 0.0) continue;
      const int32_t slot = parent_slots[r];
      double s = slot < 0 ? 0.0 : agg[slot];
      if (outer && s == 0.0) s = 1.0;  // Null-extended row survives in the FOJ.
      w[r] *= s;
    }
  }
  return Status::OK();
}

Result<int64_t> Executor::Cardinality(const engine::CompiledQuery& cq,
                                      engine::EvalScratch* scratch) const {
  for (const engine::RelationPlan& plan : cq.plans()) {
    engine::Bitmap& sat = scratch->sat[plan.name];
    plan.EvalPredicates(&sat);
    // Inner-join semantics: one relation with no satisfying rows zeroes every
    // weight upstream, so a single popcount short-circuits the whole probe.
    if (sat.Count() == 0) return 0;
  }
  SAM_RETURN_NOT_OK(SubtreeWeights(cq.top(), cq.relations(), /*outer=*/false,
                                   scratch));
  const std::vector<double>& w = scratch->weights.at(cq.top());
  double total = 0.0;
  for (double v : w) total += v;
  return static_cast<int64_t>(std::llround(total));
}

Result<int64_t> Executor::Cardinality(const Query& q) const {
  SAM_ASSIGN_OR_RETURN(engine::CompiledQuery cq,
                       engine::CompiledQuery::Compile(*db_, graph_, q));
  engine::EvalScratch scratch;
  return Cardinality(cq, &scratch);
}

Result<std::vector<int64_t>> Executor::ParallelCardinality(
    const Workload& workload, size_t num_threads) const {
  obs::TraceSpan span("exec/parallel_cardinality");
  std::vector<int64_t> out(workload.size(), 0);
  if (workload.empty()) return out;
  SAM_RETURN_NOT_OK(RunShards(
      workload.size(), ThreadsOrDefault(num_threads),
      [&](size_t begin, size_t end) -> Status {
        obs::TraceSpan shard_span("exec/shard");
        engine::EvalScratch scratch;
        for (size_t i = begin; i < end; ++i) {
          SAM_ASSIGN_OR_RETURN(
              engine::CompiledQuery cq,
              engine::CompiledQuery::Compile(*db_, graph_, workload[i]));
          SAM_ASSIGN_OR_RETURN(out[i], Cardinality(cq, &scratch));
        }
        return Status::OK();
      }));
  return out;
}

Result<std::vector<int64_t>> Executor::ParallelCardinalityCompiled(
    const std::vector<const engine::CompiledQuery*>& queries) const {
  obs::TraceSpan span("exec/parallel_cardinality_compiled");
  std::vector<int64_t> out(queries.size(), 0);
  if (queries.empty()) return out;
  for (const engine::CompiledQuery* cq : queries) {
    if (cq == nullptr) {
      return Status::InvalidArgument(
          "ParallelCardinalityCompiled: null compiled query");
    }
  }
  SAM_RETURN_NOT_OK(RunShards(
      queries.size(), SharedThreadPool().num_threads(),
      [&](size_t begin, size_t end) -> Status {
        engine::EvalScratch scratch;
        for (size_t i = begin; i < end; ++i) {
          SAM_ASSIGN_OR_RETURN(out[i], Cardinality(*queries[i], &scratch));
        }
        return Status::OK();
      }));
  return out;
}

Result<double> Executor::MeasureLatencySeconds(const Query& q) const {
  // The same pipeline as Cardinality: per-query plan compilation + probe,
  // which is the work a row-store DBMS performs for these COUNT(*) queries.
  // Timing the whole call includes predicate compilation, as a planner would.
  Stopwatch watch;
  SAM_ASSIGN_OR_RETURN(int64_t card, Cardinality(q));
  (void)card;
  return watch.ElapsedSeconds();
}

int64_t Executor::FullOuterJoinSize() const {
  const std::vector<std::string> roots = graph_.Roots();
  double total = 0.0;
  engine::EvalScratch scratch;  // No sat entries: every relation unfiltered.
  for (const auto& root : roots) {
    const Status st =
        SubtreeWeights(root, graph_.Subtree(root), /*outer=*/true, &scratch);
    SAM_CHECK(st.ok()) << st.ToString();
    for (double v : scratch.weights.at(root)) total += v;
  }
  return static_cast<int64_t>(std::llround(total));
}


Result<Table> Executor::MaterializeFullOuterJoin(size_t max_rows) const {
  // Iterative-recursive expansion threading the chosen row of every relation.
  const std::vector<std::string> order = graph_.TopologicalOrder();
  // Column layout.
  std::vector<std::pair<std::string, std::string>> content_cols;
  std::vector<std::string> fk_rels;
  for (const auto& rel : order) {
    const Table* t = db_->FindTable(rel);
    for (const auto& cname : t->ContentColumnNames()) {
      content_cols.emplace_back(rel, cname);
    }
    if (!graph_.Parent(rel).empty()) fk_rels.push_back(rel);
  }
  const size_t width = content_cols.size() + 2 * fk_rels.size();
  std::vector<std::vector<Value>> rows;

  // Per FK relation: its rows grouped by join-key slot, in row order.
  std::unordered_map<std::string, std::vector<std::vector<uint32_t>>>
      rows_by_slot;
  for (const auto& rel : fk_rels) {
    const EdgeArrays& edge = edge_arrays_.at(rel);
    auto& groups = rows_by_slot[rel];
    groups.resize(edge.num_slots);
    for (uint32_t r = 0; r < edge.child_slots.size(); ++r) {
      if (edge.child_slots[r] >= 0) groups[edge.child_slots[r]].push_back(r);
    }
  }

  // chosen[rel] = row id or -1 (null-extended).
  std::unordered_map<std::string, int64_t> chosen;

  // Recursive lambda over the topological order.
  Status status = Status::OK();
  std::function<void(size_t)> expand = [&](size_t pos) {
    if (!status.ok()) return;
    if (pos == order.size()) {
      if (rows.size() >= max_rows) {
        status = Status::OutOfRange("full outer join exceeds max_rows (" +
                                    std::to_string(max_rows) + ")");
        return;
      }
      // Emit one FOJ row from `chosen`.
      std::vector<Value> row(width);
      for (size_t i = 0; i < content_cols.size(); ++i) {
        const auto& [rel, cname] = content_cols[i];
        const int64_t r = chosen.at(rel);
        row[i] = (r < 0) ? Value::Null()
                         : db_->FindTable(rel)->FindColumn(cname)->ValueAt(
                               static_cast<size_t>(r));
      }
      for (size_t i = 0; i < fk_rels.size(); ++i) {
        const std::string& rel = fk_rels[i];
        const int64_t r = chosen.at(rel);
        row[content_cols.size() + i] = Value(static_cast<int64_t>(r >= 0 ? 1 : 0));
        int64_t fanout = 1;
        if (r >= 0) {  // Reached through its key slot, so it has one.
          const int32_t slot =
              edge_arrays_.at(rel).child_slots[static_cast<size_t>(r)];
          fanout = static_cast<int64_t>(
              rows_by_slot.at(rel)[static_cast<size_t>(slot)].size());
        }
        row[content_cols.size() + fk_rels.size() + i] = Value(fanout);
      }
      rows.push_back(std::move(row));
      return;
    }
    const std::string& rel = order[pos];
    const std::string parent = graph_.Parent(rel);
    if (parent.empty()) {
      const Table* t = db_->FindTable(rel);
      for (size_t r = 0; r < t->num_rows() && status.ok(); ++r) {
        chosen[rel] = static_cast<int64_t>(r);
        expand(pos + 1);
      }
      return;
    }
    const int64_t parent_row = chosen.at(parent);
    if (parent_row < 0) {
      // Parent absent: this relation is absent too.
      chosen[rel] = -1;
      expand(pos + 1);
      return;
    }
    const int32_t slot =
        edge_arrays_.at(rel).parent_slots[static_cast<size_t>(parent_row)];
    if (slot < 0) {
      chosen[rel] = -1;
      expand(pos + 1);
      return;
    }
    for (uint32_t r : rows_by_slot.at(rel)[static_cast<size_t>(slot)]) {
      if (!status.ok()) return;
      chosen[rel] = static_cast<int64_t>(r);
      expand(pos + 1);
    }
  };
  expand(0);
  SAM_RETURN_NOT_OK(status);

  // Assemble the output table column-by-column.
  Table out("full_outer_join");
  for (size_t i = 0; i < width; ++i) {
    std::vector<Value> col_values;
    col_values.reserve(rows.size());
    for (const auto& row : rows) col_values.push_back(row[i]);
    std::string name;
    ColumnType type = ColumnType::kInt;
    if (i < content_cols.size()) {
      const auto& [rel, cname] = content_cols[i];
      name = rel + "." + cname;
      const Table* t = db_->FindTable(rel);
      SAM_ASSIGN_OR_RETURN(size_t ci, t->ColumnIndex(cname));
      type = t->column(ci).type();
    } else if (i < content_cols.size() + fk_rels.size()) {
      name = "I(" + fk_rels[i - content_cols.size()] + ")";
    } else {
      name = "F(" + fk_rels[i - content_cols.size() - fk_rels.size()] + ")";
    }
    SAM_RETURN_NOT_OK(out.AddColumn(Column::FromValues(name, type, col_values)));
  }
  return out;
}

}  // namespace sam
