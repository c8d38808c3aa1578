#include "sam/generation_pipeline.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv1a.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sam/generation_checkpoint.h"
#include "storage/artifact_io.h"
#include "storage/csv.h"
#include "storage/schema_io.h"
#include "storage/spill.h"

namespace sam {

namespace {

/// An unkeyed leaf relation emits its final fractional tuple only when the
/// carried weight reaches this much. (Keyed relations instead assign keys to
/// leftover merge sets in descending-weight order until |T| is reached —
/// Alg 2's size guarantee.)
constexpr double kLeafCarryThreshold = 0.5;

/// Written into the work directory of a fresh run, before anything else: a
/// fresh run clears only a work directory that holds it (or an empty one),
/// never a directory the caller owns.
constexpr char kWorkDirMarker[] = "SAMGEN_WORK_DIR";

// ---------------------------------------------------------------------------
// Spill-chunk naming. Zero-padded sequence numbers make lexicographic order
// equal production order; names are relative to the work directory and are
// the keys of the checkpoint manifest.
// ---------------------------------------------------------------------------

std::string FojChunkName(uint64_t batch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "foj_%06llu.spill",
                static_cast<unsigned long long>(batch));
  return buf;
}

std::string RowChunkName(const std::string& rel, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_%06llu.spill",
                static_cast<unsigned long long>(seq));
  return "rows_" + rel + buf;
}

std::string VirtChunkName(const std::string& rel, size_t part, uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "_p%03zu_%06llu.spill", part,
                static_cast<unsigned long long>(seq));
  return "virt_" + rel + buf;
}

std::string LeftoverChunkName(const std::string& rel, size_t part) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_p%03zu.spill", part);
  return "left_" + rel + buf;
}

std::string SummaryChunkName(const std::string& rel, size_t part) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_p%03zu.spill", part);
  return "gsum_" + rel + buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct GenerationPipeline::Impl {
  struct Step {
    enum class Kind { kSample, kPartition, kPass2, kAssemble, kPublish };
    Kind kind = Kind::kSample;
    size_t rel = 0;    ///< Index into `rules()` (partition/pass2) or `layouts()`.
    size_t index = 0;  ///< Batch index / partition index.
  };

  /// One merge group of a partition step: virtuals sharing
  /// (parent key | group-key codes), in first-appearance order.
  struct Group {
    std::vector<std::pair<uint32_t, double>> members;  ///< (sample, fraction).
    double mass = 0.0;
    int64_t fk = -1;
    uint64_t key_hash = 0;
  };

  const SamModel* sam = nullptr;
  GenerationPipelineOptions opts;
  MemoryBudget budget{0};

  bool multi = false;
  uint64_t k = 0;                 ///< Total sampled FOJ tuples.
  uint64_t sample_batches = 0;
  size_t partitions = 1;
  std::vector<Step> plan;

  GenerationCheckpoint state;
  std::string resumed_from;

  // Preamble (multi-relation): per-relation IPW-scaled base weights and the
  // resident code store, both filled by the run's one pass over the spilled
  // FOJ chunks. A pure recomputation — no RNG involved — so it is rebuilt on
  // demand after a resume rather than checkpointed.
  bool preamble_ready = false;
  std::vector<std::vector<double>> w_base;  ///< Per relation, as `rules()`.
  /// The model columns some partition or pass-2 step reads: every relation's
  /// layout content columns and merge-group columns (which include its
  /// children's). Fixed by `Init`.
  std::vector<size_t> store_cols;
  /// Per model column, the codes of all k samples: filled for `store_cols`,
  /// empty for every other column. Read-only once the preamble is ready, so
  /// lookahead workers share it.
  std::vector<std::vector<int32_t>> codes;
  int64_t preamble_reserved = 0;

  struct ColPlan {
    enum class Kind { kPk, kFk, kContent };
    Kind kind = Kind::kContent;
    size_t model_col = 0;
  };

  /// State of the relation whose partition steps are executing: its
  /// renormalised weights, layout plan and merge-group columns (its codes
  /// live in the preamble's store). Built once per relation (spanning its
  /// partition + pass-2 steps), released when the next relation activates.
  struct ActiveRel {
    bool valid = false;
    size_t topo_index = 0;
    std::string name;
    const SamModel::TableLayout* layout = nullptr;
    bool keyed = false;
    /// Child relation indices in join-graph edge order (the order key
    /// assignment emits virtuals in); a child's position here is its slot.
    std::vector<size_t> children;
    /// Slots in child-name order: the order buffered virtuals are flushed
    /// in, which fixes the manifest order.
    std::vector<size_t> flush_order;
    std::vector<size_t> group_cols;
    std::vector<std::vector<size_t>> child_group_cols;  ///< Per slot.
    std::vector<ColPlan> col_plan;
    std::vector<double> w;  ///< Renormalised scaled weights.
    /// Root at fan-out > 1 only: each positively weighted sample's
    /// partition (its group key's hash), hashed once at activation.
    std::vector<uint32_t> root_part;
    /// Root only: the positively weighted samples of each partition, which
    /// size a root partition's lookahead entry.
    std::vector<int64_t> root_part_positive;
    int64_t reserved = 0;
  };
  ActiveRel active;

  // Step-local output buffers, always flushed before a step completes so
  // chunk boundaries are deterministic on resume.
  struct RowBuffer {
    std::string csv;
    uint64_t rows = 0;
    int64_t reserved = 0;
  };
  struct VirtBuffer {
    std::vector<SpillVirtual> records;
    int64_t reserved = 0;
  };
  RowBuffer row_buf;
  /// The active relation's virtual buffers, at slot * partitions + partition.
  std::vector<VirtBuffer> virt_bufs;

  /// \brief One entry of the lookahead: the pure phase of an upcoming plan
  /// step, run on the shared worker set ahead of its turn. A sample step's
  /// pure phase samples its batch; a partition step's is phase A (gather the
  /// partition's virtual samples, build its merge groups). Everything else
  /// a step does (chunk writes, key assignment, row emission, which thread
  /// pk counters, leaf carry and chunk sequence numbers through the plan)
  /// stays on the pipeline thread in plan order, and consumes an entry
  /// exactly as it consumes its own inline result, so every spill byte,
  /// checkpoint cursor and published byte is identical for every thread
  /// count. Both pure phases are pure functions of (base seed, batch) or of
  /// spilled data, so an entry dropped on stop is recomputed identically on
  /// resume.
  struct Ahead {
    uint64_t step = 0;     ///< Plan index of the step this entry runs.
    int64_t reserved = 0;  ///< Budget held from dispatch until consumed.
    std::future<void> done;
    /// Sample step: the batch's codes and the sampler state it runs on,
    /// both allocated on the pipeline thread before dispatch.
    SamModel::FojSample foj;
    MadeModel::SamplerState sampler;
    /// Partition step: phase A's merge groups, or its I/O error.
    std::vector<Group> groups;
    Status status;
  };
  /// The contiguous run of steps after the executing one, all of its kind
  /// (and, for partitions, of its relation), in plan order.
  std::deque<Ahead> lookahead;
  /// Sampler states no entry holds: reused by the entries and by a sample
  /// step that samples its own batch.
  std::vector<MadeModel::SamplerState> idle_samplers;

  ~Impl() {
    DrainLookahead();
    ClearRowBuffer();
    ClearVirtBuffers();
    DeactivateRelation();
    ReleasePreamble();
  }

  // ------------------------------------------------------------------------

  const ModelSchema& schema() const { return sam->schema(); }
  const SamOptions& options() const { return sam->options(); }

  std::string Path(const std::string& name) const {
    return opts.work_dir + "/" + name;
  }
  std::string StagingDir() const { return opts.work_dir + "/staging"; }

  /// The relations in processing order: the join graph's topological
  /// order (ModelSchema::Build), which the checkpoint's relations follow.
  const std::vector<RelationRule>& rules() const { return schema().relations(); }
  size_t RelIndex(const std::string& name) const {
    return static_cast<size_t>(schema().RelationIndex(name));
  }
  GenerationCheckpoint::RelationState& RelState(const std::string& name) {
    return state.relations[RelIndex(name)];
  }

  const SamModel::TableLayout* LayoutOf(const std::string& rel) const {
    for (const auto& l : sam->layouts()) {
      if (l.name == rel) return &l;
    }
    return nullptr;
  }

  /// The columns whose codes key `rel`'s merge groups: Theorem 2's
  /// identifier columns for a keyed relation, its content columns otherwise.
  std::vector<size_t> GroupColumns(const std::string& rel) const {
    const SamModel::TableLayout* layout = LayoutOf(rel);
    return layout != nullptr && !layout->pk.empty()
               ? schema().relation(rel).identifier_columns
               : schema().ColumnsOf(ModelColumnKind::kContent, rel);
  }

  /// Fills `store_cols`: each relation's layout content columns and group
  /// columns. A relation's children are relations too, so this also covers
  /// the child group columns that partition its virtuals.
  void ChooseStoreColumns() {
    std::vector<uint8_t> used(schema().num_columns(), 0);
    for (const RelationRule& rule : rules()) {
      for (const int col : LayoutOf(rule.name)->model_columns) {
        if (col >= 0) used[static_cast<size_t>(col)] = 1;
      }
      for (const size_t c : GroupColumns(rule.name)) used[c] = 1;
    }
    store_cols.clear();
    for (size_t c = 0; c < used.size(); ++c) {
      if (used[c] != 0) store_cols.push_back(c);
    }
  }

  /// The preamble's reservation: 8 bytes per relation and sample for the
  /// weights plus 4 per stored column and sample for the code store;
  /// INT64_MAX when that overflows.
  int64_t PreambleBytes() const {
    uint64_t weights = 0;
    uint64_t store = 0;
    uint64_t total = 0;
    if (__builtin_mul_overflow(k, uint64_t{8} * rules().size(), &weights) ||
        __builtin_mul_overflow(k, uint64_t{4} * store_cols.size(), &store) ||
        __builtin_add_overflow(weights, store, &total) || total > INT64_MAX) {
      return INT64_MAX;
    }
    return static_cast<int64_t>(total);
  }

  /// Row-buffer reservation granularity.
  static constexpr int64_t kRowSlab = 64ll << 10;

  int64_t RowFlushBytes() const {
    const int64_t cap = budget.cap();
    if (cap <= 0) return 8ll << 20;
    return std::clamp<int64_t>(cap / 16, 64ll << 10, 8ll << 20);
  }

  size_t VirtFlushRecords(size_t buffer_count) const {
    const int64_t cap = budget.cap();
    const int64_t pool =
        cap <= 0 ? (64ll << 20) : std::max<int64_t>(cap / 8, 64ll << 10);
    const int64_t per =
        pool / static_cast<int64_t>(std::max<size_t>(buffer_count, 1));
    return static_cast<size_t>(std::max<int64_t>(
        per / static_cast<int64_t>(sizeof(SpillVirtual)), 256));
  }

  /// Partition fan-out, derived only from (k, cap) so the plan — and with it
  /// every spill-chunk name — is a pure function of the configuration.
  /// Tighter caps spread the merge-group tables over more, smaller
  /// partitions (more spill I/O, identical output).
  size_t ChoosePartitions() const {
    if (!multi) return 1;
    const int64_t cap = budget.cap();
    if (cap <= 0) return 1;
    const int64_t per_partition = std::max<int64_t>(cap / 4, 1ll << 20);
    // 192 bytes of group-table state per virtual: a loose bound, kept fixed
    // because the fan-out fixes the plan and every chunk name. Init bounds
    // k by cap / 16, so k * 192 overflows only under a cap near INT64_MAX.
    int64_t estimate = 0;
    if (__builtin_mul_overflow(static_cast<int64_t>(k), int64_t{192},
                               &estimate)) {
      return 256;
    }
    const int64_t p = estimate / per_partition + 1;
    return static_cast<size_t>(std::clamp<int64_t>(p, 1, 256));
  }

  uint64_t ComputeFingerprint() const {
    Fnv1a f;
    f.MixString("samgen-v1");
    const ModelSchema& sc = schema();
    f.MixU64(sc.num_columns());
    for (const auto& mc : sc.columns()) {
      f.MixU64(static_cast<uint64_t>(mc.kind));
      f.MixString(mc.table);
      f.MixString(mc.name);
      f.MixU64(mc.domain_size);
      f.MixU64(mc.has_null ? 1 : 0);
      f.MixU64(mc.intervalized ? 1 : 0);
      f.MixU64(mc.categories.size());
      for (double b : mc.bounds) f.MixDouble(b);
    }
    for (const auto& [name, size] : sc.table_sizes()) {
      f.MixString(name);
      f.MixI64(size);
    }
    for (const auto& layout : sam->layouts()) {
      f.MixString(layout.name);
      for (size_t c = 0; c < layout.column_names.size(); ++c) {
        f.MixString(layout.column_names[c]);
        f.MixU64(static_cast<uint64_t>(layout.column_types[c]));
      }
      f.MixString(layout.pk);
      for (const auto& fk : layout.fks) {
        f.MixString(fk.column);
        f.MixString(fk.parent_table);
        f.MixString(fk.parent_column);
      }
    }
    const SamOptions& o = options();
    f.MixU64(o.generation_batch);
    f.MixU64(o.foj_samples);
    f.MixU64(o.enforce_null_consistency ? 1 : 0);
    // The leaf threshold and the 0 (an empty column-order override) stand
    // where retired options were mixed, so checkpoints written before their
    // removal still resume.
    f.MixDouble(kLeafCarryThreshold);
    f.MixU64(o.generation_seed);
    f.MixU64(0);
    // The cap fixes the partition fan-out and buffer thresholds, i.e. the
    // spill layout — resuming across a cap change would splice two layouts.
    f.MixI64(o.memory_cap_bytes);
    // Model parameters: different weights sample different tuples.
    for (const auto& t : sam->model()->params()) {
      const Matrix& m = t.value();
      f.MixU64(m.rows());
      f.MixU64(m.cols());
      f.Mix(m.data(), m.rows() * m.cols() * sizeof(double));
    }
    if (const SamModel::FojSample* foj = opts.injected_foj) {
      f.MixU64(foj->count);  // Injected tuples replace the model draws.
      for (const auto& c : foj->codes) f.Mix(c.data(), c.size() * sizeof(int32_t));
    }
    return f.hash();
  }

  void BuildPlan() {
    plan.clear();
    for (uint64_t b = 0; b < sample_batches; ++b) {
      plan.push_back(Step{Step::Kind::kSample, 0, static_cast<size_t>(b)});
    }
    if (multi) {
      for (size_t r = 0; r < rules().size(); ++r) {
        for (size_t p = 0; p < partitions; ++p) {
          plan.push_back(Step{Step::Kind::kPartition, r, p});
        }
        const SamModel::TableLayout* layout = LayoutOf(rules()[r].name);
        if (layout != nullptr && !layout->pk.empty()) {
          plan.push_back(Step{Step::Kind::kPass2, r, 0});
        }
      }
    }
    for (size_t t = 0; t < sam->layouts().size(); ++t) {
      plan.push_back(Step{Step::Kind::kAssemble, t, 0});
    }
    plan.push_back(Step{Step::Kind::kPublish, 0, 0});
  }

  // -- Manifest -------------------------------------------------------------

  Status RecordChunk(const std::string& name) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(Path(name), ec);
    if (ec) {
      return Status::IOError("cannot stat freshly-written spill chunk '" +
                             Path(name) + "': " + ec.message());
    }
    const uint64_t bytes = static_cast<uint64_t>(size);
    for (auto& f : state.manifest) {
      if (f.name == name) {
        // A replayed step rewrote its chunk (byte-identical by construction).
        state.spill_bytes += bytes - f.bytes;
        f.bytes = bytes;
        return Status::OK();
      }
    }
    state.manifest.push_back(SpillFileInfo{name, bytes});
    state.spill_bytes += bytes;
    return Status::OK();
  }

  /// Recorded size of spill chunk `name`; -1 when the manifest lacks it.
  int64_t ManifestBytes(const std::string& name) const {
    for (const auto& f : state.manifest) {
      if (f.name == name) return static_cast<int64_t>(f.bytes);
    }
    return -1;
  }

  // -- Initialisation -------------------------------------------------------

  Status Init() {
    namespace fs = std::filesystem;
    if (opts.out_dir.empty() || opts.work_dir.empty()) {
      return Status::InvalidArgument(
          "generation pipeline needs both an output and a work directory");
    }
    const SamOptions& o = options();
    SAM_RETURN_NOT_OK(ValidateSamOptions(o));
    budget = MemoryBudget(o.memory_cap_bytes);

    multi = schema().multi_relation();
    if (!multi && sam->layouts().size() != 1) {
      return Status::Internal("single-relation schema with " +
                              std::to_string(sam->layouts().size()) +
                              " layouts");
    }
    k = multi ? o.foj_samples
              : static_cast<uint64_t>(schema().table_size(rules()[0].name));
    if (const SamModel::FojSample* foj = opts.injected_foj) {
      bool shaped = foj->codes.size() == schema().num_columns();
      for (const auto& col : foj->codes) shaped &= col.size() >= foj->count;
      if (!shaped) {
        return Status::InvalidArgument(
            "injected FOJ sample does not match the model's columns");
      }
      k = foj->count;
    }
    for (const RelationRule& rule : rules()) {
      const std::string& rel = rule.name;
      const SamModel::TableLayout* layout = LayoutOf(rel);
      if (layout == nullptr) {
        return Status::Internal("no table layout recorded for relation '" +
                                rel + "'");
      }
      if (layout->fks.size() > 1) {
        return Status::NotImplemented(
            "relation '" + rel + "' has " + std::to_string(layout->fks.size()) +
            " foreign keys; generation supports tree-structured schemas with "
            "at most one foreign key per relation");
      }
    }
    if (multi) {
      // The preamble's weight arrays and code store are the floor of any
      // multi-relation run. Refuse a k they cannot fit before planning
      // k / batch sample steps, not after sampling them all.
      ChooseStoreColumns();
      SAM_RETURN_NOT_OK(budget.CheckFits(
          PreambleBytes(), "per-relation weight arrays + resident code store"));
    }
    sample_batches = (k + o.generation_batch - 1) / o.generation_batch;
    partitions = ChoosePartitions();
    BuildPlan();

    const uint64_t fingerprint = ComputeFingerprint();
    if (opts.resume) {
      SAM_ASSIGN_OR_RETURN(state, LoadLatestValidGenerationCheckpoint(
                                      opts.work_dir, &resumed_from));
      if (state.fingerprint != fingerprint) {
        return Status::InvalidArgument(
            "generation checkpoint '" + resumed_from +
            "' was written by a different model/configuration (fingerprint "
            "mismatch); refusing to resume");
      }
      if (state.next_step > plan.size() ||
          state.relations.size() != rules().size()) {
        return Status::InvalidArgument("generation checkpoint '" +
                                       resumed_from +
                                       "' does not match the current plan");
      }
      for (size_t i = 0; i < rules().size(); ++i) {
        if (state.relations[i].name != rules()[i].name ||
            state.relations[i].virt_chunk_seq.size() != partitions) {
          return Status::InvalidArgument(
              "generation checkpoint '" + resumed_from +
              "' does not match the current relation plan");
        }
      }
      SAM_RETURN_NOT_OK(VerifySpillManifest(opts.work_dir, state.manifest));
      obs::MetricsRegistry::Global()
          .GetCounter("sam.generate.resume_events")
          ->Add(1);
      SAM_LOG(Info) << "resuming generation from " << resumed_from
                    << " at step " << state.next_step << "/" << plan.size();
      return Status::OK();
    }

    // Fresh run: the work directory is pipeline-owned scratch — clear stale
    // remains of earlier runs so chunk reads cannot mix configurations. Only
    // a directory this pipeline created (it holds the marker) or an empty
    // one is cleared; anything else is the caller's and is left untouched.
    std::error_code ec;
    const std::string marker = Path(kWorkDirMarker);
    if (fs::exists(opts.work_dir, ec) &&
        (!fs::is_directory(opts.work_dir, ec) ||
         (!fs::is_empty(opts.work_dir, ec) && !fs::exists(marker, ec)))) {
      return Status::InvalidArgument(
          "refusing to clear work directory '" + opts.work_dir +
          "': it is not empty and was not created by a generation run (no '" +
          std::string(kWorkDirMarker) + "' marker)");
    }
    fs::remove_all(opts.work_dir, ec);
    ec.clear();
    fs::create_directories(opts.work_dir, ec);
    if (ec) {
      return Status::IOError("cannot create work directory '" + opts.work_dir +
                             "': " + ec.message());
    }
    {
      std::ofstream out(marker, std::ios::binary | std::ios::trunc);
      out << "samdb generation work directory: removed on success\n";
      if (!out.good()) {
        return Status::IOError("cannot write work-directory marker '" +
                               marker + "'");
      }
    }
    state = GenerationCheckpoint{};
    state.fingerprint = fingerprint;
    state.base_seed = sam->GenerationBaseSeed();
    for (const RelationRule& rule : rules()) {
      GenerationCheckpoint::RelationState rs;
      rs.name = rule.name;
      rs.virt_chunk_seq.assign(partitions, 0);
      state.relations.push_back(std::move(rs));
    }
    return Status::OK();
  }

  // -- Preamble -------------------------------------------------------------

  void ReleasePreamble() {
    if (preamble_reserved > 0) budget.Release(preamble_reserved);
    preamble_reserved = 0;
    preamble_ready = false;
    w_base.clear();
    codes.clear();
  }

  /// Error for a spill chunk whose contents do not fit the plan: CRC-valid
  /// bytes of another shape, swapped in between runs.
  Status ForeignChunkError(const std::string& name,
                           const std::string& what) const {
    return Status::IOError("spill chunk '" + Path(name) + "' " + what +
                           "; the work directory was modified — delete it "
                           "and restart without --resume");
  }

  /// A spilled FOJ chunk must be the batch the plan wrote: its index, row
  /// count and width, and every code inside its column's domain (the
  /// weights, the code store and row decoding index by them).
  Status CheckFojChunk(const FojChunk& chunk, uint64_t b) const {
    const std::string name = FojChunkName(b);
    if (chunk.batch_index != b || chunk.rows != SampleRows(b) ||
        chunk.codes.size() != schema().num_columns()) {
      return ForeignChunkError(
          name, "holds batch " + std::to_string(chunk.batch_index) + " of " +
                    std::to_string(chunk.rows) + " rows x " +
                    std::to_string(chunk.codes.size()) +
                    " columns, but the plan wrote batch " + std::to_string(b) +
                    " of " + std::to_string(SampleRows(b)) + " x " +
                    std::to_string(schema().num_columns()));
    }
    for (size_t c = 0; c < chunk.codes.size(); ++c) {
      const size_t domain = schema().columns()[c].domain_size;
      for (const int32_t code : chunk.codes[c]) {
        if (code < 0 || static_cast<size_t>(code) >= domain) {
          return ForeignChunkError(
              name, "holds code " + std::to_string(code) + " in column " +
                        std::to_string(c) + ", whose domain has " +
                        std::to_string(domain) + " codes");
        }
      }
    }
    return Status::OK();
  }

  /// Spilled sample ids index the weights and the code store.
  Status CheckSample(uint32_t sample, const std::string& name) const {
    if (sample < k) return Status::OK();
    return ForeignChunkError(name, "names FOJ sample " +
                                       std::to_string(sample) + " of " +
                                       std::to_string(k));
  }

  /// The run's one read of the FOJ spill: each chunk is loaded once, its
  /// IPW weights computed for every relation and its `store_cols` codes
  /// copied into the resident store.
  Status EnsurePreamble() {
    if (!multi || preamble_ready) return Status::OK();
    obs::TraceSpan span("generate/pipeline/preamble");
    const int64_t bytes = PreambleBytes();
    SAM_RETURN_NOT_OK(budget.Reserve(
        bytes, "per-relation weight arrays + resident code store"));
    preamble_reserved = bytes;
    w_base.assign(rules().size(), std::vector<double>(k, 0.0));
    codes.assign(schema().num_columns(), {});
    for (const size_t c : store_cols) codes[c].resize(k);

    const size_t batch = options().generation_batch;
    for (uint64_t b = 0; b < sample_batches; ++b) {
      SAM_ASSIGN_OR_RETURN(FojChunk chunk,
                           FojChunk::Load(Path(FojChunkName(b))));
      SAM_RETURN_NOT_OK(CheckFojChunk(chunk, b));
      ScopedReservation res(&budget);
      SAM_RETURN_NOT_OK(res.Acquire(
          FojChunk::BytesFor(chunk.rows, chunk.codes.size()),
          "FOJ chunk buffer"));
      SamModel::FojSample view;
      view.count = chunk.rows;
      view.codes = std::move(chunk.codes);
      const uint64_t start = b * batch;
      for (size_t t = 0; t < rules().size(); ++t) {
        for (uint64_t r = 0; r < chunk.rows; ++r) {
          w_base[t][start + r] =
              sam->InverseProbabilityWeight(view, rules()[t], r);
        }
      }
      for (const size_t c : store_cols) {
        std::copy(view.codes[c].begin(), view.codes[c].end(),
                  codes[c].begin() + static_cast<ptrdiff_t>(start));
      }
    }
    for (size_t t = 0; t < rules().size(); ++t) {
      SAM_RETURN_NOT_OK(sam->ScaleToRelationSize(rules()[t], &w_base[t]));
    }
    preamble_ready = true;
    return Status::OK();
  }

  // -- Active relation ------------------------------------------------------

  void DeactivateRelation() {
    if (!active.valid) return;
    DrainLookahead();  // Partition entries read this relation's state.
    if (active.reserved > 0) budget.Release(active.reserved);
    active = ActiveRel{};
  }

  Status ActivateRelation(size_t topo_index) {
    if (active.valid && active.topo_index == topo_index) return Status::OK();
    DeactivateRelation();
    SAM_RETURN_NOT_OK(EnsurePreamble());

    ActiveRel rc;
    rc.topo_index = topo_index;
    rc.name = rules()[topo_index].name;
    rc.layout = LayoutOf(rc.name);
    rc.keyed = !rc.layout->pk.empty();
    for (const auto& child : schema().join_graph().Children(rc.name)) {
      rc.children.push_back(RelIndex(child));
      rc.child_group_cols.push_back(GroupColumns(child));
    }
    if (!rc.keyed && !rc.children.empty()) {
      return Status::InvalidArgument("relation '" + rc.name +
                                     "' has children but no primary key");
    }
    rc.flush_order.resize(rc.children.size());
    for (size_t i = 0; i < rc.flush_order.size(); ++i) rc.flush_order[i] = i;
    std::sort(rc.flush_order.begin(), rc.flush_order.end(),
              [&](size_t a, size_t b) {
                return rules()[rc.children[a]].name <
                       rules()[rc.children[b]].name;
              });
    rc.group_cols = GroupColumns(rc.name);

    // Layout-column plan.
    for (size_t ci = 0; ci < rc.layout->column_names.size(); ++ci) {
      ColPlan cp;
      if (const int col = rc.layout->model_columns[ci]; col >= 0) {
        cp.kind = ColPlan::Kind::kContent;
        cp.model_col = static_cast<size_t>(col);
      } else if (rc.layout->column_names[ci] == rc.layout->pk) {
        cp.kind = ColPlan::Kind::kPk;
      } else {
        cp.kind = ColPlan::Kind::kFk;
      }
      rc.col_plan.push_back(cp);
    }

    // The relation's own working set — its renormalised weights (and the
    // root's partition ids) — on top of the preamble's store.
    const bool root_parts = rc.name == schema().root() && partitions > 1;
    const int64_t bytes =
        static_cast<int64_t>(k) * (8 + (root_parts ? 4 : 0));
    SAM_RETURN_NOT_OK(budget.Reserve(
        bytes, "weight array for relation '" + rc.name +
                   "' (the per-relation floor)"));
    rc.reserved = bytes;
    auto fail = [&](Status st) {
      budget.Release(rc.reserved);
      return st;
    };

    // Re-apply the scaling step against the incoming virtual mass (Alg 2's
    // size guarantee under dropped sub-threshold parent groups).
    rc.w = w_base[topo_index];
    double incoming = 0.0;
    if (rc.name == schema().root()) {
      for (double v : rc.w) incoming += v;
    } else {
      incoming = RelState(rc.name).incoming_mass;
    }
    if (incoming <= 0.0) {
      const auto present = std::count_if(rc.w.begin(), rc.w.end(),
                                         [](double v) { return v > 0.0; });
      return fail(DegenerateSampleError(
          "no incoming mass for relation '" + rc.name + "': " +
          std::to_string(present) + " of " + std::to_string(k) +
          " FOJ samples have it present, but none of them reached a key of "
          "its parent '" + schema().join_graph().Parent(rc.name) + "'"));
    }
    const double renorm =
        static_cast<double>(schema().table_size(rc.name)) / incoming;
    for (double& v : rc.w) v *= renorm;

    rc.valid = true;
    active = std::move(rc);
    ClearVirtBuffers();
    virt_bufs.resize(active.children.size() * partitions);
    if (active.name == schema().root()) CountRootPartitions();
    return Status::OK();
  }

  /// Fills `active.root_part` and `active.root_part_positive`.
  void CountRootPartitions() {
    active.root_part_positive.assign(partitions, 0);
    if (partitions > 1) active.root_part.assign(k, 0);
    for (uint64_t s = 0; s < k; ++s) {
      if (active.w[s] <= 0.0) continue;
      uint32_t part = 0;
      if (partitions > 1) {
        part = static_cast<uint32_t>(
            KeyHash(-1, static_cast<uint32_t>(s), active.group_cols) %
            partitions);
        active.root_part[s] = part;
      }
      ++active.root_part_positive[part];
    }
  }

  // -- Group keys -----------------------------------------------------------

  /// Hash of sample `sample`'s merge-group key under parent key `fk`: FNV-1a
  /// (`HashKey`) of the decimal text "<fk>|<code>,<code>,...,", streamed
  /// without building the string. Partition ids and the spilled group
  /// summaries derive from these values.
  uint64_t KeyHash(int64_t fk, uint32_t sample,
                   const std::vector<size_t>& cols) const {
    Fnv1a f;
    char buf[24];  // An int64 in decimal plus the separator.
    auto mix = [&](auto value, char sep) {
      char* end = std::to_chars(buf, buf + sizeof(buf) - 1, value).ptr;
      *end++ = sep;
      f.Mix(buf, static_cast<size_t>(end - buf));
    };
    mix(fk, '|');
    for (const size_t c : cols) mix(codes[c][sample], ',');
    return f.hash();
  }

  /// True when sample `sample` under parent key `fk` has the key of group
  /// `g`, whose first member stands for its codes.
  bool SameKey(const Group& g, int64_t fk, uint32_t sample) const {
    if (g.fk != fk) return false;
    const uint32_t rep = g.members.front().first;
    for (const size_t c : active.group_cols) {
      if (codes[c][rep] != codes[c][sample]) return false;
    }
    return true;
  }

  // -- Row emission ---------------------------------------------------------

  void ClearRowBuffer() {
    if (row_buf.reserved > 0) budget.Release(row_buf.reserved);
    row_buf = RowBuffer{};
  }

  /// Row-path relations are indices into `rules()` and `state.relations`.
  Status FlushRowChunk(size_t rel) {
    if (row_buf.rows == 0) {
      ClearRowBuffer();
      return Status::OK();
    }
    auto& rs = state.relations[rel];
    const std::string name = RowChunkName(rules()[rel].name, rs.row_chunk_seq);
    RowChunk chunk;
    chunk.rows = row_buf.rows;
    chunk.csv = std::move(row_buf.csv);
    SAM_RETURN_NOT_OK(chunk.Save(Path(name)));
    SAM_RETURN_NOT_OK(RecordChunk(name));
    rs.row_chunk_seq++;
    ClearRowBuffer();
    return Status::OK();
  }

  /// Per-row accounting shared by `AppendRow` and `EmitRow`: the caller has
  /// just appended exactly one rendered row to `row_buf.csv`. Slab
  /// reservations and the flush check follow the byte count only, so chunk
  /// boundaries are a pure function of the rows.
  Status AccountAppendedRow(size_t rel) {
    row_buf.rows++;
    state.relations[rel].rows_emitted++;
    // Reserve buffer growth in slabs (per-byte reservations would dominate
    // the profile).
    while (row_buf.reserved < static_cast<int64_t>(row_buf.csv.size())) {
      SAM_RETURN_NOT_OK(budget.Reserve(
          kRowSlab, "row buffer for relation '" + rules()[rel].name + "'"));
      row_buf.reserved += kRowSlab;
    }
    if (static_cast<int64_t>(row_buf.csv.size()) >= RowFlushBytes()) {
      SAM_RETURN_NOT_OK(FlushRowChunk(rel));
    }
    return Status::OK();
  }

  Status AppendRow(size_t rel, const std::vector<Value>& row) {
    AppendCsvRow(row, &row_buf.csv);
    return AccountAppendedRow(rel);
  }

  /// Decodes sample `sample` into one row of the active relation, rendered
  /// in `AppendCsvRow`'s format straight into the row buffer. `pk` is only
  /// read by relations with a primary key.
  Status EmitRow(uint32_t sample, int64_t pk, int64_t fk, Rng* rng) {
    std::string& csv = row_buf.csv;
    for (size_t c = 0; c < active.col_plan.size(); ++c) {
      const ColPlan& cp = active.col_plan[c];
      if (c > 0) csv.push_back(',');
      switch (cp.kind) {
        case ColPlan::Kind::kPk:
          csv.append(std::to_string(pk));
          break;
        case ColPlan::Kind::kFk:
          csv.append(Value(fk).ToString());
          break;
        case ColPlan::Kind::kContent: {
          const ModelColumn& mc = schema().columns()[cp.model_col];
          const Value v =
              schema().DecodeContent(mc, codes[cp.model_col][sample], rng);
          if (!v.is_null()) AppendCsvField(v, &csv);
          break;
        }
      }
    }
    csv.push_back('\n');
    return AccountAppendedRow(active.topo_index);
  }

  // -- Child virtuals -------------------------------------------------------

  void ClearVirtBuffers() {
    for (VirtBuffer& buf : virt_bufs) {
      if (buf.reserved > 0) budget.Release(buf.reserved);
    }
    virt_bufs.clear();
  }

  /// Spills the buffer of the active relation's child `slot` for partition
  /// `part` as its next virtual chunk, if it holds any records.
  Status FlushVirtBuffer(size_t slot, size_t part) {
    VirtBuffer& buf = virt_bufs[slot * partitions + part];
    if (!buf.records.empty()) {
      const size_t ci = active.children[slot];
      auto& cs = state.relations[ci];
      const std::string name =
          VirtChunkName(rules()[ci].name, part, cs.virt_chunk_seq[part]);
      VirtualChunk chunk;
      chunk.records = std::move(buf.records);
      buf.records = {};
      SAM_RETURN_NOT_OK(chunk.Save(Path(name)));
      SAM_RETURN_NOT_OK(RecordChunk(name));
      cs.virt_chunk_seq[part]++;
    }
    if (buf.reserved > 0) budget.Release(buf.reserved);
    buf.reserved = 0;
    return Status::OK();
  }

  /// Flushes every buffer in (child name, partition) order.
  Status FlushAllVirtBuffers() {
    for (const size_t slot : active.flush_order) {
      for (size_t p = 0; p < partitions; ++p) {
        SAM_RETURN_NOT_OK(FlushVirtBuffer(slot, p));
      }
    }
    return Status::OK();
  }

  Status EmitChildVirtual(size_t slot, uint32_t sample, double fraction,
                          int64_t fk) {
    // Zero-mass virtuals (top-up keys, zero-weight samples) are no-ops for
    // every downstream consumer; never spilling them keeps chunks smaller
    // without changing any output.
    if (fraction <= 0.0) return Status::OK();
    const size_t part =
        partitions > 1
            ? KeyHash(fk, sample, active.child_group_cols[slot]) % partitions
            : 0;
    VirtBuffer& buf = virt_bufs[slot * partitions + part];
    buf.records.push_back(SpillVirtual{sample, fraction, fk});
    const size_t ci = active.children[slot];
    state.relations[ci].incoming_mass += w_base[ci][sample] * fraction;
    const int64_t slab = 16ll << 10;
    while (buf.reserved < static_cast<int64_t>(buf.records.size() *
                                               sizeof(SpillVirtual))) {
      SAM_RETURN_NOT_OK(budget.Reserve(
          slab, "virtual-sample buffer for relation '" + rules()[ci].name +
                    "'"));
      buf.reserved += slab;
    }
    if (buf.records.size() >=
        VirtFlushRecords(active.children.size() * partitions)) {
      SAM_RETURN_NOT_OK(FlushVirtBuffer(slot, part));
    }
    return Status::OK();
  }

  // -- Lookahead ------------------------------------------------------------

  /// Entries the lookahead may hold: `threads` (0 = the shared set's
  /// width), none when `threads == 1`, the fully serial reference that every
  /// thread count must stay byte-identical to (deliberately excluded from
  /// the fingerprint: resuming under another thread count is supported).
  size_t LookaheadWidth() const {
    return opts.threads == 1 ? 0 : ThreadsOrDefault(opts.threads);
  }

  /// Budget the lookahead leaves free for the executing step's own
  /// reservations, which must keep succeeding while entries are held: a
  /// quarter of the cap, and at least the row buffer that Alg 1's decode
  /// reserves up to one slab past its flush threshold (a multi-relation
  /// sample step reserves nothing more).
  int64_t LookaheadHeadroom() const {
    return std::max(budget.cap() / 4,
                    multi ? int64_t{0} : RowFlushBytes() + kRowSlab);
  }

  /// Memory the pure phase of step `s` may hold, reserved before dispatch;
  /// -1 when it cannot be estimated (the fill stops there).
  ///  * sample batch: its codes;
  ///  * non-root partition: x8 its on-disk virtual chunks, from the spill
  ///    manifest (stat-level, no reads). On-disk bytes are >= 16 per record
  ///    while phase-A state is <= ~120 per record (transient chunk,
  ///    virtuals vector, group table);
  ///  * root partition: 24 + 96 + 24 bytes per positively weighted sample.
  ///    All root partitions together hold each such sample once, so the
  ///    relation's count bounds any one of them.
  int64_t EntryBytes(const Step& s) const {
    if (s.kind == Step::Kind::kSample) {
      return FojChunk::BytesFor(SampleRows(s.index), schema().num_columns());
    }
    if (active.name == schema().root()) {
      return active.root_part_positive[s.index] *
             (static_cast<int64_t>(sizeof(SpillVirtual)) + 96 + 24);
    }
    const auto& rs = state.relations[active.topo_index];
    int64_t disk_bytes = 0;
    for (uint64_t seq = 0; seq < rs.virt_chunk_seq[s.index]; ++seq) {
      const int64_t bytes =
          ManifestBytes(VirtChunkName(active.name, s.index, seq));
      if (bytes < 0) return -1;
      disk_bytes += bytes;
    }
    return disk_bytes * 8;
  }

  MadeModel::SamplerState TakeSampler() {
    if (idle_samplers.empty()) {
      return sam->model()->InitState(
          std::min<uint64_t>(options().generation_batch, k));
    }
    MadeModel::SamplerState st = std::move(idle_samplers.back());
    idle_samplers.pop_back();
    return st;
  }

  /// A sample step's pure phase, in two halves: sizing the batch's codes
  /// and handing `e` a sampler state happens on the pipeline thread, and
  /// `SampleBatch` may then run anywhere.
  void PrepareSample(Ahead* e, size_t batch_index) {
    const size_t rows = SampleRows(batch_index);
    e->foj.count = rows;
    e->foj.codes.assign(schema().num_columns(), std::vector<int32_t>(rows));
    e->sampler = TakeSampler();
  }

  void SampleBatch(Ahead* e, size_t batch_index) const {
    sam->SampleFojBatchInto(state.base_seed, batch_index, &e->foj, 0,
                            e->foj.count, &e->sampler);
  }

  /// Runs step `s`'s pure phase on the shared worker set. Partition workers
  /// read only `active`, the active relation's chunk sequence numbers and
  /// its spill files, none of which the executing step's phase B writes.
  void Dispatch(Ahead* e, const Step& s) {
    if (s.kind == Step::Kind::kSample) {
      PrepareSample(e, s.index);
      e->done = SharedThreadPool().Submit(
          [this, e, batch = s.index] { SampleBatch(e, batch); });
    } else {
      e->done = SharedThreadPool().Submit([this, e, part = s.index] {
        auto virtuals = GatherVirtuals(part);
        if (!virtuals.ok()) {
          e->status = virtuals.status();
          return;
        }
        e->groups = BuildGroups(virtuals.ValueOrDie());
      });
    }
  }

  /// Extends the lookahead over the steps after the executing one while
  /// they are of its kind (and relation), up to `LookaheadWidth()`. Called
  /// once the executing step has made its mandatory reservations. Each
  /// entry reserves `EntryBytes` before dispatch, and only while
  /// `LookaheadHeadroom()` stays free: speculation must never fail a
  /// reservation that the serial run passes. The first entry that does not
  /// fit ends the fill, so the entries stay a contiguous run.
  void FillLookahead() {
    const Step& cur = plan[state.next_step];
    const int64_t cap = budget.cap();
    const size_t width = LookaheadWidth();
    size_t dispatched = 0;
    for (size_t j = 1; j <= width; ++j) {
      const uint64_t step = state.next_step + j;
      if (step >= plan.size()) break;
      const Step& s = plan[step];
      if (s.kind != cur.kind || s.rel != cur.rel) break;
      if (j <= lookahead.size()) {  // Dispatched by an earlier step.
        SAM_CHECK_EQ(lookahead[j - 1].step, step);
        continue;
      }
      const int64_t bytes = EntryBytes(s);
      if (bytes < 0) break;
      if (cap > 0 && budget.reserved() + bytes > cap - LookaheadHeadroom()) {
        break;
      }
      if (!budget.Reserve(bytes, "lookahead entry").ok()) break;
      Ahead& e = lookahead.emplace_back();
      e.step = step;
      e.reserved = bytes;
      Dispatch(&e, s);
      ++dispatched;
    }
    if (!obs::MetricsEnabled()) return;
    auto& reg = obs::MetricsRegistry::Global();
    if (cur.kind == Step::Kind::kSample) {
      reg.GetGauge("sam.gen.sample_parallelism")
          ->Set(static_cast<double>(std::max<size_t>(lookahead.size(), 1)));
    } else if (!lookahead.empty()) {
      // The executing partition's phase B runs next to the entries' phase A.
      reg.GetCounter("sam.generate.partitions_prefetched")->Add(dispatched);
      reg.GetGauge("sam.gen.commit_parallelism")
          ->Set(static_cast<double>(lookahead.size() + 1));
    }
  }

  /// Moves the executing step's entry out of the lookahead, waiting for its
  /// worker, and hands its reservation to `res` (releasing and re-acquiring
  /// the same amount cannot fail). False when the lookahead does not hold
  /// the step: the step then runs its pure phase inline.
  bool TakeLookahead(ScopedReservation* res, Ahead* out) {
    if (lookahead.empty()) return false;
    Ahead& e = lookahead.front();
    SAM_CHECK_EQ(e.step, state.next_step);
    e.done.wait();
    budget.Release(e.reserved);
    SAM_CHECK_OK(res->Acquire(e.reserved, "lookahead entry"));
    KeepSampler(&e);
    *out = std::move(e);
    lookahead.pop_front();
    out->done.get();  // Rethrows what the worker threw (bad_alloc).
    return true;
  }

  /// Waits out every entry and releases its reservation, keeping the
  /// sampler states (on stop, error, relation change and destruction).
  void DrainLookahead() {
    for (Ahead& e : lookahead) {
      e.done.wait();
      budget.Release(e.reserved);
      KeepSampler(&e);
    }
    lookahead.clear();
  }

  void KeepSampler(Ahead* e) {
    if (plan[e->step].kind == Step::Kind::kSample) {
      idle_samplers.push_back(std::move(e->sampler));
    }
  }

  // -- Sample steps ---------------------------------------------------------

  size_t SampleRows(size_t batch_index) const {
    const uint64_t start =
        static_cast<uint64_t>(batch_index) * options().generation_batch;
    return static_cast<size_t>(
        std::min<uint64_t>(options().generation_batch, k - start));
  }

  Status ExecSample(size_t batch_index) {
    obs::TraceSpan span("generate/pipeline/sample");
    const size_t rows = SampleRows(batch_index);
    const int64_t bytes = FojChunk::BytesFor(rows, schema().num_columns());
    ScopedReservation res(&budget);
    Ahead entry;
    SamModel::FojSample& foj = entry.foj;
    if (opts.injected_foj != nullptr) {
      SAM_RETURN_NOT_OK(res.Acquire(bytes, "sample batch codes"));
      const uint64_t start =
          static_cast<uint64_t>(batch_index) * options().generation_batch;
      foj.count = rows;
      for (const auto& col : opts.injected_foj->codes) {
        foj.codes.emplace_back(col.begin() + start,
                               col.begin() + start + rows);
      }
    } else {
      if (!TakeLookahead(&res, &entry)) {
        SAM_RETURN_NOT_OK(res.Acquire(bytes, "sample batch codes"));
        entry.step = state.next_step;
        PrepareSample(&entry, batch_index);
        SampleBatch(&entry, batch_index);
        KeepSampler(&entry);
      }
      // Overlap the spill write / decode below with sampling of the next
      // batches.
      FillLookahead();
    }

    if (multi) {
      FojChunk chunk;
      chunk.batch_index = batch_index;
      chunk.rows = rows;
      chunk.codes = std::move(foj.codes);
      SAM_RETURN_NOT_OK(chunk.Save(Path(FojChunkName(batch_index))));
      return RecordChunk(FojChunkName(batch_index));
    }
    // Single relation (Alg 1): decode the batch straight to one CSV row
    // chunk; no weighting or key assignment applies.
    const size_t rel = RelIndex(sam->layouts()[0].name);
    SAM_RETURN_NOT_OK(sam->DecodeSingleRelationBatch(
        state.base_seed, batch_index, foj, 0, rows,
        [&](std::vector<Value>&& row) { return AppendRow(rel, row); }));
    // One durable row chunk per sample batch.
    return FlushRowChunk(rel);
  }

  // -- Partition steps (Group-and-Merge) ------------------------------------

  /// Phase A, gather: this partition's virtual samples. The inline path
  /// passes `res` to reserve them incrementally (chunk by chunk); a
  /// lookahead entry passes null, having reserved its estimate before
  /// dispatch, and is then thread-safe: it reads only `active`, `state` and
  /// spill files.
  Result<std::vector<SpillVirtual>> GatherVirtuals(
      size_t part, ScopedReservation* res = nullptr) const {
    std::vector<SpillVirtual> virtuals;
    if (active.name == schema().root()) {
      // Root virtuals are implicit: every positively-weighted sample at
      // fraction 1 with no parent key; partitioned by its own group key.
      for (uint64_t s = 0; s < k; ++s) {
        if (active.w[s] <= 0.0) continue;
        if (partitions > 1 && active.root_part[s] != part) continue;
        virtuals.push_back(SpillVirtual{static_cast<uint32_t>(s), 1.0, -1});
      }
      if (res != nullptr) {
        SAM_RETURN_NOT_OK(res->Acquire(VirtualChunk::BytesFor(virtuals.size()),
                                       "root virtual samples"));
      }
    } else {
      const auto& rs = state.relations[active.topo_index];
      for (uint64_t seq = 0; seq < rs.virt_chunk_seq[part]; ++seq) {
        const std::string name = VirtChunkName(active.name, part, seq);
        SAM_ASSIGN_OR_RETURN(VirtualChunk chunk,
                             VirtualChunk::Load(Path(name)));
        for (const SpillVirtual& v : chunk.records) {
          SAM_RETURN_NOT_OK(CheckSample(v.sample, name));
        }
        if (res != nullptr) {
          SAM_RETURN_NOT_OK(res->Acquire(
              VirtualChunk::BytesFor(chunk.records.size()),
              "virtual samples for relation '" + active.name + "'"));
        }
        virtuals.insert(virtuals.end(), chunk.records.begin(),
                        chunk.records.end());
      }
    }
    return virtuals;
  }

  /// Phase A, group: merge groups in first-appearance order — a pure
  /// function of the virtuals and the active relation's weights, so the
  /// inline and lookahead paths produce identical groups. Thread-safe.
  std::vector<Group> BuildGroups(
      const std::vector<SpillVirtual>& virtuals) const {
    std::vector<Group> groups;
    // Open addressing on the key hash, at most half full; a slot holds its
    // group's index + 1 (0 = empty). Equal hashes are told apart by the key.
    size_t mask = 15;
    while (mask < 2 * virtuals.size()) mask = mask * 2 + 1;
    std::vector<uint32_t> slots(mask + 1, 0);
    for (const auto& v : virtuals) {
      const double wv = active.w[v.sample] * v.fraction;
      if (wv <= 0.0) continue;
      const uint64_t hash = KeyHash(v.fk_value, v.sample, active.group_cols);
      size_t i = hash & mask;
      while (slots[i] != 0 && (groups[slots[i] - 1].key_hash != hash ||
                               !SameKey(groups[slots[i] - 1], v.fk_value,
                                        v.sample))) {
        i = (i + 1) & mask;
      }
      if (slots[i] == 0) {
        groups.emplace_back();
        groups.back().fk = v.fk_value;
        groups.back().key_hash = hash;
        slots[i] = static_cast<uint32_t>(groups.size());
      }
      Group& g = groups[slots[i] - 1];
      g.members.emplace_back(v.sample, v.fraction);
      g.mass += wv;
    }
    return groups;
  }

  Status ExecPartition(size_t rel_i, size_t part) {
    obs::TraceSpan span("generate/pipeline/partition");
    SAM_RETURN_NOT_OK(ActivateRelation(rel_i));

    Rng rng(DeriveSeed(state.base_seed, "decode|" + active.name + "|part|" +
                                            std::to_string(part)));
    ScopedReservation virt_res(&budget);
    ScopedReservation group_res(&budget);
    // A lookahead entry's reservation stays held through phase B, so the
    // groups it built stay accounted.
    Ahead entry;
    std::vector<Group>& groups = entry.groups;
    if (TakeLookahead(&group_res, &entry)) {
      SAM_RETURN_NOT_OK(entry.status);  // The inline gather would fail too.
    } else {
      // Phase A inline, under incremental accounting.
      SAM_ASSIGN_OR_RETURN(std::vector<SpillVirtual> virtuals,
                           GatherVirtuals(part, &virt_res));
      // 96 bytes of group state per virtual (member slot, group record,
      // index slots), reserved up front so a pathological partition fails
      // cleanly instead of OOMing.
      SAM_RETURN_NOT_OK(group_res.Acquire(
          static_cast<int64_t>(virtuals.size()) * 96,
          "merge-group table for relation '" + active.name + "' partition " +
              std::to_string(part)));
      groups = BuildGroups(virtuals);
    }
    // Phase A of the next partitions overlaps phase B of this one.
    FillLookahead();

    if (active.keyed) {
      SAM_RETURN_NOT_OK(ExecKeyedPartition(part, groups, &rng));
    } else {
      SAM_RETURN_NOT_OK(ExecLeafPartition(part, groups, &rng));
    }
    SAM_RETURN_NOT_OK(FlushRowChunk(active.topo_index));
    return FlushAllVirtBuffers();
  }

  /// Pass 1 of Group-and-Merge (Alg 3 lines 9-17) for one partition: merge
  /// within each group, assigning the next key whenever the accumulated
  /// scaled weight reaches 1, and spill the sub-unit leftover sets for the
  /// global pass 2.
  Status ExecKeyedPartition(size_t part, const std::vector<Group>& groups,
                            Rng* rng) {
    auto& rs = RelState(active.name);
    LeftoverChunk leftover;
    for (const Group& g : groups) {
      std::vector<LeftoverMember> set_to_merge;
      double weight_sum = 0.0;
      for (const auto& [sample, fraction] : g.members) {
        double remaining = active.w[sample] * fraction;
        // A single virtual may span several primary keys (scaled weight > 1
        // after filling the current merge set).
        while (remaining > 0.0) {
          const double take = std::min(remaining, 1.0 - weight_sum);
          set_to_merge.push_back(LeftoverMember{sample, take});
          weight_sum += take;
          remaining -= take;
          if (weight_sum >= 1.0 - 1e-12) {
            SAM_RETURN_NOT_OK(AssignKey(set_to_merge, g.fk, rng, &rs));
            set_to_merge.clear();
            weight_sum = 0.0;
          }
        }
      }
      if (weight_sum > 1e-9 && !set_to_merge.empty()) {
        LeftoverSet set;
        set.weight = weight_sum;
        set.fk_value = g.fk;
        set.members = std::move(set_to_merge);
        leftover.sets.push_back(std::move(set));
      }
    }
    if (!leftover.sets.empty()) {
      const std::string name = LeftoverChunkName(active.name, part);
      SAM_RETURN_NOT_OK(leftover.Save(Path(name)));
      SAM_RETURN_NOT_OK(RecordChunk(name));
    }
    // Group digests for the shortfall top-up: (mass, key hash,
    // representative sample), a pure function of pre-assignment state, so
    // pass 2 derives the identical heaviest-group order without the group
    // tables resident.
    if (!groups.empty()) {
      GroupSummaryChunk summary;
      summary.groups.reserve(groups.size());
      for (const Group& g : groups) {
        summary.groups.push_back(
            GroupSummary{g.mass, g.key_hash, g.members.front().first, g.fk});
      }
      const std::string name = SummaryChunkName(active.name, part);
      SAM_RETURN_NOT_OK(summary.Save(Path(name)));
      SAM_RETURN_NOT_OK(RecordChunk(name));
    }
    return Status::OK();
  }

  /// Assigns the next primary key to a merge set — the one key-assignment
  /// path of pass 1 and pass 2: emit one row from the first member, then
  /// hand each member's consumed share down to every child as a virtual.
  Status AssignKey(const std::vector<LeftoverMember>& members, int64_t fk,
                   Rng* rng, GenerationCheckpoint::RelationState* rs) {
    if (members.empty()) {
      return Status::Internal("empty merge set for relation '" + active.name +
                              "'");
    }
    SAM_RETURN_NOT_OK(EmitRow(members.front().sample, rs->pk_counter, fk, rng));
    for (const auto& m : members) {
      const double sample_total = active.w[m.sample];
      const double child_fraction =
          sample_total > 0.0 ? m.take / sample_total : 0.0;
      for (size_t slot = 0; slot < active.children.size(); ++slot) {
        SAM_RETURN_NOT_OK(
            EmitChildVirtual(slot, m.sample, child_fraction, rs->pk_counter));
      }
    }
    rs->pk_counter++;
    return Status::OK();
  }

  Status ExecLeafPartition(size_t part, const std::vector<Group>& groups,
                           Rng* rng) {
    auto& rs = RelState(active.name);
    // Leaf relation: emit round(mass) copies per aggregated group with the
    // carry threaded globally across partitions through the checkpoint.
    for (const Group& g : groups) {
      const uint32_t sample = g.members.front().first;
      // Snap near-integer masses: 1/fanout products drift, and a 2.99999...
      // mass must emit 3 rows of *this* tuple, not leak into the next one.
      double mass = g.mass;
      const double rounded = std::round(mass);
      if (std::fabs(mass - rounded) < 1e-6) mass = rounded;
      rs.leaf_carry += mass;
      while (rs.leaf_carry >= 1.0) {
        SAM_RETURN_NOT_OK(EmitRow(sample, -1, g.fk, rng));
        rs.leaf_carry -= 1.0;
      }
      rs.leaf_last_valid = true;
      rs.leaf_last_sample = sample;
      rs.leaf_last_fk = g.fk;
    }
    if (part + 1 == partitions) {
      // End of the relation: the final sub-threshold tuple goes to the last
      // aggregated group seen anywhere.
      if (rs.leaf_carry >= kLeafCarryThreshold && rs.leaf_last_valid) {
        SAM_RETURN_NOT_OK(
            EmitRow(rs.leaf_last_sample, -1, rs.leaf_last_fk, rng));
      } else if (rs.leaf_carry > 0.0 && obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global()
            .GetGauge("sam.generate.leftover_mass_dropped")
            ->Add(rs.leaf_carry);
      }
      rs.leaf_carry = 0.0;
      rs.leaf_last_valid = false;
    }
    return Status::OK();
  }

  // -- Pass 2: global leftover assignment + shortfall top-up ----------------

  Status ExecPass2(size_t rel_i) {
    obs::TraceSpan span("generate/pipeline/pass2");
    SAM_RETURN_NOT_OK(ActivateRelation(rel_i));
    auto& rs = RelState(active.name);
    Rng rng(DeriveSeed(state.base_seed, "decode|" + active.name + "|pass2"));

    // Load every partition's leftover sets. The global order is
    // (weight desc, partition asc, in-chunk index asc) — a pure function of
    // pass-1 outputs, so a resumed run reproduces it exactly.
    struct IndexedSet {
      double weight = 0.0;
      size_t part = 0;
      size_t idx = 0;
      LeftoverSet set;
    };
    std::vector<IndexedSet> leftovers;
    ScopedReservation res(&budget);
    for (size_t p = 0; p < partitions; ++p) {
      const std::string name = LeftoverChunkName(active.name, p);
      if (ManifestBytes(name) < 0) continue;
      SAM_ASSIGN_OR_RETURN(LeftoverChunk chunk,
                           LeftoverChunk::Load(Path(name)));
      int64_t bytes = 0;
      for (const auto& s : chunk.sets) {
        for (const LeftoverMember& m : s.members) {
          SAM_RETURN_NOT_OK(CheckSample(m.sample, name));
        }
        bytes += 48 + static_cast<int64_t>(s.members.size()) * 16;
      }
      SAM_RETURN_NOT_OK(res.Acquire(
          bytes, "leftover merge sets for relation '" + active.name + "'"));
      for (size_t i = 0; i < chunk.sets.size(); ++i) {
        leftovers.push_back(
            IndexedSet{chunk.sets[i].weight, p, i, std::move(chunk.sets[i])});
      }
    }
    std::sort(leftovers.begin(), leftovers.end(),
              [](const IndexedSet& a, const IndexedSet& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                if (a.part != b.part) return a.part < b.part;
                return a.idx < b.idx;
              });

    const int64_t target = schema().table_size(active.name);
    double dropped_mass = 0.0;
    for (const auto& ls : leftovers) {
      if (rs.pk_counter >= target) {
        dropped_mass += ls.weight;
        continue;
      }
      SAM_RETURN_NOT_OK(AssignKey(ls.set.members, ls.set.fk_value, &rng, &rs));
    }

    if (rs.pk_counter < target) {
      // Shortfall: top up round-robin from the heaviest groups, using the
      // digests pass 1 spilled. Topped-up keys repeat already-emitted
      // content and their child virtuals would carry zero mass, so none are
      // emitted.
      const int64_t shortfall = target - rs.pk_counter;
      struct IndexedSummary {
        GroupSummary g;
        size_t part = 0;
        size_t idx = 0;
      };
      std::vector<IndexedSummary> heavy;
      ScopedReservation heavy_res(&budget);
      for (size_t p = 0; p < partitions; ++p) {
        const std::string name = SummaryChunkName(active.name, p);
        if (ManifestBytes(name) < 0) continue;
        SAM_ASSIGN_OR_RETURN(GroupSummaryChunk chunk,
                             GroupSummaryChunk::Load(Path(name)));
        for (const GroupSummary& g : chunk.groups) {
          SAM_RETURN_NOT_OK(CheckSample(g.sample, name));
        }
        SAM_RETURN_NOT_OK(heavy_res.Acquire(
            static_cast<int64_t>(chunk.groups.size()) * 48,
            "group summaries for relation '" + active.name + "'"));
        for (size_t i = 0; i < chunk.groups.size(); ++i) {
          heavy.push_back(IndexedSummary{chunk.groups[i], p, i});
        }
      }
      if (heavy.empty()) {
        return Status::Internal(
            "relation '" + active.name + "' is " + std::to_string(shortfall) +
            " row(s) short of |T| with no merge groups to draw from");
      }
      std::sort(heavy.begin(), heavy.end(),
                [](const IndexedSummary& a, const IndexedSummary& b) {
                  if (a.g.mass != b.g.mass) return a.g.mass > b.g.mass;
                  if (a.g.key_hash != b.g.key_hash) {
                    return a.g.key_hash < b.g.key_hash;
                  }
                  if (a.part != b.part) return a.part < b.part;
                  return a.idx < b.idx;
                });
      for (size_t i = 0; rs.pk_counter < target; i = (i + 1) % heavy.size()) {
        SAM_RETURN_NOT_OK(EmitRow(heavy[i].g.sample, rs.pk_counter,
                                  heavy[i].g.fk_value, &rng));
        rs.pk_counter++;
      }
      SAM_LOG(Warn) << "relation '" << active.name
                    << "': leftover merge sets ran out " << shortfall
                    << " row(s) short of |T|=" << target
                    << "; topped up from the heaviest groups";
      obs::MetricsRegistry::Global()
          .GetCounter("sam.generate.shortfall_rows")
          ->Add(static_cast<uint64_t>(shortfall));
    }
    if (dropped_mass > 0.0 && obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetGauge("sam.generate.leftover_mass_dropped")
          ->Add(dropped_mass);
    }
    SAM_RETURN_NOT_OK(FlushRowChunk(active.topo_index));
    return FlushAllVirtBuffers();
  }

  // -- Assembly + publish ---------------------------------------------------

  Status ExecAssemble(size_t table_i) {
    obs::TraceSpan span("generate/pipeline/assemble");
    DeactivateRelation();  // Assembly needs no resident columns or weights.
    ReleasePreamble();
    const SamModel::TableLayout& layout = sam->layouts()[table_i];
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(StagingDir(), ec);
    if (ec) {
      return Status::IOError("cannot create staging dir '" + StagingDir() +
                             "': " + ec.message());
    }
    SAM_ASSIGN_OR_RETURN(
        AtomicFileWriter writer,
        AtomicFileWriter::Open(StagingDir() + "/" + layout.name + ".csv"));
    std::string header;
    AppendCsvHeader(layout.column_names, &header);
    SAM_RETURN_NOT_OK(writer.Append(header));
    // Stream every row chunk through one fixed-size buffer: assembly memory
    // no longer scales with chunk (let alone table) size. Each chunk's
    // chained payload CRC is verified before Commit(), so bit rot still
    // surfaces as an IOError with nothing published.
    const int64_t buf_bytes =
        budget.cap() > 0
            ? std::clamp<int64_t>(budget.cap() / 16, 64ll << 10, 1ll << 20)
            : (1ll << 20);
    ScopedReservation res(&budget);
    SAM_RETURN_NOT_OK(res.Acquire(buf_bytes, "row chunk stream buffer"));
    std::string buf(static_cast<size_t>(buf_bytes), '\0');
    const auto& rs = RelState(layout.name);
    for (uint64_t seq = 0; seq < rs.row_chunk_seq; ++seq) {
      SAM_ASSIGN_OR_RETURN(
          RowChunkReader reader,
          RowChunkReader::Open(Path(RowChunkName(layout.name, seq))));
      while (reader.csv_remaining() > 0) {
        SAM_ASSIGN_OR_RETURN(size_t got,
                             reader.ReadCsv(buf.data(), buf.size()));
        if (got == 0) break;
        SAM_RETURN_NOT_OK(writer.Append(buf.data(), got));
      }
      SAM_RETURN_NOT_OK(reader.Finish());
    }
    SAM_RETURN_NOT_OK(writer.Commit());
    if (obs::MetricsEnabled()) {
      auto& reg = obs::MetricsRegistry::Global();
      reg.GetGauge("sam.generate.rows." + layout.name)
          ->Set(static_cast<double>(rs.rows_emitted));
      reg.GetGauge("sam.generate.target_rows." + layout.name)
          ->Set(static_cast<double>(schema().table_size(layout.name)));
    }
    return Status::OK();
  }

  Status ExecPublish() {
    obs::TraceSpan span("generate/pipeline/publish");
    namespace fs = std::filesystem;
    if (fs::exists(StagingDir())) {
      // Schema file, written by SaveSchema from a database of empty tables
      // (what LoadSchema reads back), then the all-or-nothing swap.
      Database empty;
      for (const auto& layout : sam->layouts()) {
        Table t(layout.name);
        for (size_t c = 0; c < layout.column_names.size(); ++c) {
          SAM_RETURN_NOT_OK(
              t.AddColumn(Column(layout.column_names[c], layout.column_types[c])));
        }
        if (!layout.pk.empty()) SAM_RETURN_NOT_OK(t.SetPrimaryKey(layout.pk));
        for (const auto& fk : layout.fks) SAM_RETURN_NOT_OK(t.AddForeignKey(fk));
        SAM_RETURN_NOT_OK(empty.AddTable(std::move(t)));
      }
      SAM_RETURN_NOT_OK(SaveSchema(empty, StagingDir() + "/schema.txt"));
      return PromoteStagingDir(StagingDir(), opts.out_dir);
    }
    if (fs::exists(opts.out_dir)) {
      // Replayed publish (crash between the swap and the final checkpoint):
      // the database is already live.
      return Status::OK();
    }
    return Status::IOError("publish step found neither staging dir '" +
                           StagingDir() + "' nor published output '" +
                           opts.out_dir + "'");
  }

  // -- Checkpointing / driver ----------------------------------------------

  Status SaveCheckpoint() {
    state.peak_reserved = std::max(state.peak_reserved, budget.peak());
    state.rows_total = 0;
    for (const auto& rs : state.relations) state.rows_total += rs.rows_emitted;
    SAM_RETURN_NOT_OK(
        state.Save(Path(GenerationCheckpointFileName(state.next_step))));
    obs::MetricsRegistry::Global()
        .GetCounter("sam.generate.checkpoints")
        ->Add(1);
    PruneGenerationCheckpoints(opts.work_dir, opts.checkpoint_keep);
    return Status::OK();
  }

  bool StopRequested() const {
    return opts.stop_flag != nullptr &&
           opts.stop_flag->load(std::memory_order_relaxed);
  }

  Status ExecStep(const Step& s) {
    switch (s.kind) {
      case Step::Kind::kSample:
        return ExecSample(s.index);
      case Step::Kind::kPartition:
        return ExecPartition(s.rel, s.index);
      case Step::Kind::kPass2:
        return ExecPass2(s.rel);
      case Step::Kind::kAssemble:
        return ExecAssemble(s.rel);
      case Step::Kind::kPublish:
        return ExecPublish();
    }
    return Status::Internal("unknown pipeline step kind");
  }

  Result<GenerationRunSummary> Run() {
    SAM_RETURN_NOT_OK(Init());
    GenerationRunSummary summary;
    summary.steps_total = plan.size();
    summary.resumed_from = resumed_from;

    uint64_t since_checkpoint = 0;
    const uint64_t every =
        static_cast<uint64_t>(options().generation_checkpoint_every);
    while (state.next_step < plan.size()) {
      if (StopRequested() ||
          (opts.stop_after_steps > 0 &&
           summary.steps_executed >= opts.stop_after_steps)) {
        DrainLookahead();
        SAM_RETURN_NOT_OK(SaveCheckpoint());
        FillSummary(&summary, /*completed=*/false);
        SAM_LOG(Info) << "generation stopped at step " << state.next_step
                      << "/" << plan.size() << " (checkpoint saved)";
        return summary;
      }
      if (Status st = ExecStep(plan[state.next_step]); !st.ok()) {
        DrainLookahead();
        return st;
      }
      state.next_step++;
      summary.steps_executed++;
      since_checkpoint++;
      if (state.next_step < plan.size() && since_checkpoint >= every) {
        SAM_RETURN_NOT_OK(SaveCheckpoint());
        since_checkpoint = 0;
      }
    }

    DeactivateRelation();
    ReleasePreamble();
    FillSummary(&summary, /*completed=*/true);
    if (opts.keep_work_dir) {
      SAM_RETURN_NOT_OK(SaveCheckpoint());
    } else {
      std::error_code ec;
      std::filesystem::remove_all(opts.work_dir, ec);  // Best effort.
    }
    return summary;
  }

  void FillSummary(GenerationRunSummary* summary, bool completed) {
    summary->completed = completed;
    summary->next_step = state.next_step;
    summary->rows_written = 0;
    for (const auto& rs : state.relations) {
      summary->rows_written += rs.rows_emitted;
    }
    summary->spill_bytes = state.spill_bytes;
    summary->peak_reserved = std::max(state.peak_reserved, budget.peak());
  }
};

// ---------------------------------------------------------------------------

GenerationPipeline::GenerationPipeline(const SamModel* sam,
                                       GenerationPipelineOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->sam = sam;
  impl_->opts = std::move(options);
}

GenerationPipeline::~GenerationPipeline() = default;

Result<GenerationRunSummary> GenerationPipeline::Run() { return impl_->Run(); }

uint64_t GenerationPipeline::Fingerprint() const {
  return impl_->ComputeFingerprint();
}

}  // namespace sam
