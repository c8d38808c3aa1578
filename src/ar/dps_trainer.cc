#include "ar/dps_trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <thread>

#include "ar/training_checkpoint.h"
#include "autodiff/adam.h"
#include "autodiff/ops.h"
#include "common/fnv1a.h"
#include "common/logging.h"
#include "common/spin_team.h"
#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace sam {

using ad::Tensor;

namespace {

constexpr double kMaskedLogit = -1e9;

/// Builds the B x D mask constant for one column from the compiled queries of
/// the batch; `rows` maps batch row -> query index (paths replicate rows).
/// Returns an all-ones mask tensor when no query constrains the column.
struct ColumnMasks {
  bool constrained = false;
  Matrix allow;     ///< 1/0 mask, B x D.
  Matrix log_mask;  ///< 0 or kMaskedLogit, B x D.
};

ColumnMasks BuildColumnMasks(std::span<const CompiledQuery* const> queries,
                             const std::vector<size_t>& rows, size_t col,
                             size_t domain) {
  ColumnMasks out;
  for (const CompiledQuery* q : queries) {
    if (!q->allow[col].empty()) {
      out.constrained = true;
      break;
    }
  }
  if (!out.constrained) return out;
  const size_t batch = rows.size();
  out.allow = Matrix(batch, domain, 1.0);
  out.log_mask = Matrix(batch, domain, 0.0);
  for (size_t r = 0; r < batch; ++r) {
    const auto& allow = queries[rows[r]]->allow[col];
    if (allow.empty()) continue;
    bool any = false;
    for (size_t j = 0; j < domain; ++j) {
      if (!allow[j]) {
        out.allow(r, j) = 0.0;
        out.log_mask(r, j) = kMaskedLogit;
      } else {
        any = true;
      }
    }
    if (!any) {
      // Degenerate empty range (possible for unseen literals): fall back to
      // an unconstrained row so sampling stays well-defined; the in-range
      // probability of 0 is still recorded through `allow`.
      for (size_t j = 0; j < domain; ++j) out.log_mask(r, j) = 0.0;
    }
  }
  return out;
}

/// One shard of a step: queries [begin, end) of the minibatch, the key of
/// its first batch row (see `RunDpsShardTape`) and its tape's loss.
struct Shard {
  size_t begin = 0;
  size_t end = 0;
  uint64_t first_row = 0;
  double loss = 0;
};

/// A fixed element range of a step's tail: rows [begin, end) of parameter
/// `param`, which has `cols` columns.
struct RowRange {
  size_t param;
  size_t begin;
  size_t end;
  size_t cols;
};

/// Splits every parameter into row ranges of about `kTailGrain` elements.
/// The split depends on the shapes only, never on the thread count.
std::vector<RowRange> SplitRows(const std::vector<Tensor>& params) {
  constexpr size_t kTailGrain = 4096;
  std::vector<RowRange> ranges;
  for (size_t k = 0; k < params.size(); ++k) {
    const size_t rows = params[k].rows();
    const size_t cols = params[k].cols();
    const size_t step = std::max<size_t>(1, kTailGrain / cols);
    for (size_t r = 0; r < rows; r += step) {
      ranges.push_back({k, r, std::min(rows, r + step), cols});
    }
  }
  return ranges;
}

}  // namespace

double RunDpsShardTape(const MadeModel& model,
                       std::span<const CompiledQuery* const> queries,
                       const DpsOptions& options, size_t epoch, double tau,
                       uint64_t first_row, size_t batch_rows,
                       MadeModel::MaskedWeights* leaves) {
  const ModelSchema& schema = model.schema();
  const size_t paths = options.sample_paths;
  const size_t batch = queries.size() * paths;
  std::vector<size_t> row_query(batch);
  for (size_t r = 0; r < batch; ++r) row_query[r] = r / paths;

  // ---- Forward: progressive sampling with straight-through samples.
  *leaves = model.BuildMaskedWeights();
  const MadeModel::MaskedWeights& mw = *leaves;
  MadeModel::Sweep sweep = model.StartSweep(batch);
  const double log_total = std::log(
      static_cast<double>(std::max<int64_t>(schema.foj_size(), 1)));
  Tensor log_est = Tensor::Constant(Matrix(batch, 1, log_total));
  ad::GumbelNoise noise;
  noise.seed = options.seed;
  noise.stream = epoch;
  noise.first_row = first_row;

  for (size_t col = 0; col < schema.num_columns(); ++col) {
    const ModelColumn& mc = schema.columns()[col];
    Tensor logits = model.ColumnPass(mw, &sweep);
    const ColumnMasks masks =
        BuildColumnMasks(queries, row_query, col, mc.domain_size);

    Tensor masked_logits = logits;
    if (masks.constrained) {
      // In-range probability contributes to the cardinality estimate.
      Tensor probs = ad::Softmax(logits);
      Tensor p_in = ad::RowSum(ad::Mul(probs, Tensor::Constant(masks.allow)));
      log_est = ad::Add(log_est, ad::LogEps(p_in, 1e-20));
      masked_logits = ad::Add(logits, Tensor::Constant(masks.log_mask));
    }
    noise.column = col;
    Tensor sample = ad::GumbelSoftmaxST(masked_logits, tau, noise);

    if (mc.kind == ModelColumnKind::kFanout) {
      // Fanout scaling: rows whose query excludes this relation multiply
      // the estimate by 1/F (log-space: -log F of the sampled value).
      Matrix neg_log_f(batch, mc.domain_size, 0.0);
      bool any = false;
      for (size_t r = 0; r < batch; ++r) {
        if (!queries[row_query[r]]->scale_fanout[col]) continue;
        any = true;
        for (size_t j = 0; j < mc.domain_size; ++j) {
          neg_log_f(r, j) =
              -std::log(static_cast<double>(mc.FanoutValueOf(
                  static_cast<int32_t>(j))));
        }
      }
      if (any) {
        Tensor contrib =
            ad::RowSum(ad::Mul(sample, Tensor::Constant(std::move(neg_log_f))));
        log_est = ad::Add(log_est, contrib);
      }
    }
    model.WriteSample(&sweep, sample);
  }

  // ---- Loss: this shard's share of the minibatch mean squared error.
  Matrix target(batch, 1);
  for (size_t r = 0; r < batch; ++r) {
    target(r, 0) = queries[row_query[r]]->log_card;
  }
  Tensor diff = ad::Sub(log_est, Tensor::Constant(std::move(target)));
  Tensor loss = ad::Scale(ad::SumAll(ad::Mul(diff, diff)),
                          1.0 / static_cast<double>(batch_rows));
  loss.Backward();
  return loss.value()(0, 0);
}

Status ValidateDpsOptions(const DpsOptions& o) {
  if (o.epochs == 0) {
    return Status::InvalidArgument("DpsOptions.epochs must be > 0");
  }
  if (o.batch_size == 0) {
    return Status::InvalidArgument("DpsOptions.batch_size must be > 0");
  }
  if (o.sample_paths == 0) {
    return Status::InvalidArgument("DpsOptions.sample_paths must be > 0");
  }
  if (!std::isfinite(o.learning_rate) || o.learning_rate <= 0) {
    return Status::InvalidArgument(
        "DpsOptions.learning_rate must be finite and > 0");
  }
  if (!std::isfinite(o.gumbel_tau) || o.gumbel_tau <= 0) {
    return Status::InvalidArgument(
        "DpsOptions.gumbel_tau must be finite and > 0");
  }
  if (!std::isfinite(o.gumbel_tau_final) || o.gumbel_tau_final < 0) {
    return Status::InvalidArgument(
        "DpsOptions.gumbel_tau_final must be finite and >= 0");
  }
  if (!std::isfinite(o.clip_norm) || o.clip_norm < 0) {
    return Status::InvalidArgument(
        "DpsOptions.clip_norm must be finite and >= 0");
  }
  if (!std::isfinite(o.time_budget_seconds) || o.time_budget_seconds < 0) {
    return Status::InvalidArgument(
        "DpsOptions.time_budget_seconds must be finite and >= 0");
  }
  if (!o.checkpoint_dir.empty() && o.checkpoint_every_epochs == 0) {
    return Status::InvalidArgument(
        "DpsOptions.checkpoint_every_epochs must be > 0 when checkpointing");
  }
  if (o.resume && o.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "DpsOptions.resume requires a checkpoint_dir");
  }
  return Status::OK();
}

uint64_t TrainingFingerprint(const DpsOptions& options, const MadeModel& model,
                             const Workload& train) {
  Fnv1a h;
  // Training options that shape the arithmetic. The checkpointing knobs
  // (dir/cadence/retention/resume) only decide *when* snapshots are written,
  // never what is computed, so they are deliberately excluded. The constants
  // stand where retired options (learning-rate decay 1.0, direct connections
  // on, init scale 1.0) were mixed, so checkpoints written before their
  // removal still resume.
  h.MixU64(options.epochs);
  h.MixU64(options.batch_size);
  h.MixU64(options.sample_paths);
  h.MixDouble(options.learning_rate);
  h.MixDouble(1.0);
  h.MixDouble(options.gumbel_tau);
  h.MixDouble(options.gumbel_tau_final);
  h.MixDouble(options.clip_norm);
  h.MixU64(options.seed);
  h.MixDouble(options.time_budget_seconds);
  // The sharded step: the shard count and the counter-addressed Gumbel
  // noise shape the arithmetic. `threads` does not, and is left out.
  h.MixU64(kDpsShards);
  h.MixString("counter-gumbel");
  // The causal column sweep sums hidden units in degree order, so its
  // trained bits differ from the per-column full recompute's by rounding.
  h.MixString("causal-sweep");
  const MadeModel::Options& mo = model.options();
  const ModelSchema& schema = model.schema();
  // The progressive buffers sum each slot's gradient terms in tape order.
  // While every hidden layer has a unit of every degree, that is the order
  // the per-column Add chains they replaced summed them in, and the trained
  // bits are the same. A layer narrower than columns - 1 leaves degree
  // groups empty; there the order, and so the bits, may differ by rounding.
  if (std::any_of(mo.hidden_sizes.begin(), mo.hidden_sizes.end(),
                  [&](size_t hs) { return hs + 1 < schema.num_columns(); })) {
    h.MixString("progressive-buffers");
  }
  // Model architecture.
  h.MixU64(mo.hidden_sizes.size());
  for (size_t hs : mo.hidden_sizes) h.MixU64(hs);
  h.MixU64(mo.residual ? 1 : 0);
  h.MixU64(1);
  h.MixDouble(1.0);
  h.MixU64(mo.seed);
  // Schema layout (column order matters: it defines the AR factorisation).
  h.MixU64(schema.num_columns());
  h.MixU64(schema.total_domain());
  h.MixU64(static_cast<uint64_t>(schema.foj_size()));
  for (const auto& c : schema.columns()) {
    h.MixU64(c.domain_size);
    h.MixU64(c.offset);
    h.MixU64(static_cast<uint64_t>(c.kind));
  }
  // Training workload (labels + shape; the predicates themselves are pinned
  // by the schema's compiled domains).
  h.MixU64(train.size());
  for (const auto& q : train) {
    h.MixU64(static_cast<uint64_t>(q.cardinality));
    h.MixU64(q.relations.size());
    h.MixU64(q.predicates.size());
  }
  return h.hash();
}

Result<std::vector<DpsEpochStats>> TrainDps(MadeModel* model,
                                            const Workload& train,
                                            const DpsOptions& options,
                                            const DpsCallback& callback) {
  SAM_RETURN_NOT_OK(ValidateDpsOptions(options));
  if (train.empty()) return Status::InvalidArgument("empty training workload");
  const ModelSchema& schema = model->schema();

  // Compile every query once.
  std::vector<CompiledQuery> compiled;
  compiled.reserve(train.size());
  for (const auto& q : train) {
    SAM_ASSIGN_OR_RETURN(CompiledQuery cq, schema.Compile(q));
    compiled.push_back(std::move(cq));
  }

  ad::AdamOptimizer::Options adam_opts;
  adam_opts.lr = options.learning_rate;
  adam_opts.clip_norm = options.clip_norm;
  ad::AdamOptimizer adam(model->params(), adam_opts);

  Rng rng(options.seed);

  std::vector<Shard> shards(kDpsShards);
  // Each shard tape's private leaves, in shard order.
  std::vector<MadeModel::MaskedWeights> leaves(kDpsShards);
  // The step's tail (gradient reduction and Adam update) runs over these
  // fixed ranges on the team; the gradient buffers they write live as
  // long as the optimiser.
  const std::vector<RowRange> tail = SplitRows(model->params());
  adam.ZeroGrad();
  // A step waits for its slowest shard. With a shard on every hardware
  // thread, a preemption of any one of them (by another process or, on a
  // virtual machine, by the hypervisor) stalls the whole step, so the
  // default leaves half of them free (docs/PERFORMANCE.md).
  size_t workers = options.threads;
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency() / 2);
  }
  workers = std::min(workers, kDpsShards);
  SpinTeam team(workers);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("sam.train.shard_parallelism")
        ->Set(static_cast<double>(workers));
  }

  std::vector<size_t> order(train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // ---- Checkpoint/restore ---------------------------------------------------
  const bool checkpointing = !options.checkpoint_dir.empty();
  const uint64_t fingerprint =
      checkpointing ? TrainingFingerprint(options, *model, train) : 0;
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      return Status::IOError("cannot create checkpoint dir '" +
                             options.checkpoint_dir + "': " + ec.message());
    }
  }

  std::vector<DpsEpochStats> stats;
  size_t start_epoch = 0;
  size_t resume_step = 0;
  bool resume_in_epoch = false;
  double resumed_seconds = 0;
  // Loss accumulators of the epoch in flight; restored from mid-epoch
  // checkpoints so a resumed epoch reports the same mean loss.
  double epoch_loss_sum = 0;
  size_t epoch_loss_count = 0;
  size_t epoch_processed = 0;

  if (options.resume) {
    std::string loaded_from;
    Result<TrainingCheckpoint> loaded =
        LoadLatestValidCheckpoint(options.checkpoint_dir, &loaded_from);
    if (!loaded.ok() && loaded.status().code() == StatusCode::kNotFound) {
      // Empty directory: a fresh run that will start checkpointing.
    } else if (!loaded.ok()) {
      return loaded.status();
    } else {
      TrainingCheckpoint& c = loaded.ValueOrDie();
      if (c.fingerprint != fingerprint) {
        return Status::InvalidArgument(
            "checkpoint '" + loaded_from +
            "' was written under different training options, model "
            "architecture or workload; resuming would silently diverge");
      }
      auto params = model->params();
      if (c.params.size() != params.size()) {
        return Status::InvalidArgument("checkpoint '" + loaded_from + "' has " +
                                       std::to_string(c.params.size()) +
                                       " parameter tensors, model has " +
                                       std::to_string(params.size()));
      }
      for (size_t i = 0; i < params.size(); ++i) {
        if (c.params[i].rows() != params[i].rows() ||
            c.params[i].cols() != params[i].cols()) {
          return Status::InvalidArgument(
              "checkpoint '" + loaded_from +
              "' parameter shape mismatch at tensor " + std::to_string(i));
        }
      }
      if (c.order.size() != train.size()) {
        return Status::InvalidArgument(
            "checkpoint '" + loaded_from + "' covers " +
            std::to_string(c.order.size()) + " training queries, workload has " +
            std::to_string(train.size()));
      }
      for (uint64_t v : c.order) {
        if (v >= train.size()) {
          return Status::InvalidArgument("checkpoint '" + loaded_from +
                                         "' has an out-of-range example index");
        }
      }
      for (size_t i = 0; i < params.size(); ++i) {
        params[i].mutable_value() = std::move(c.params[i]);
      }
      SAM_RETURN_NOT_OK(adam.RestoreState(c.adam_step_count, std::move(c.adam_m),
                                          std::move(c.adam_v)));
      adam.set_lr(c.adam_lr);
      SAM_RETURN_NOT_OK(rng.RestoreState(c.rng_state));
      order.assign(c.order.begin(), c.order.end());
      stats = std::move(c.stats);
      start_epoch = c.epoch;
      resume_step = c.step_start;
      resume_in_epoch = c.in_epoch;
      resumed_seconds = c.seconds_elapsed;
      epoch_loss_sum = c.epoch_loss_sum;
      epoch_loss_count = c.epoch_loss_count;
      epoch_processed = c.epoch_processed;
      SAM_LOG(Info) << "resumed training from " << loaded_from << " (epoch "
                    << start_epoch << ", step " << resume_step << ")";
    }
  }

  Stopwatch budget_watch;
  auto elapsed_seconds = [&]() {
    return resumed_seconds + budget_watch.ElapsedSeconds();
  };

  auto write_checkpoint = [&](uint64_t epoch, uint64_t step,
                              bool in_epoch) -> Status {
    if (!checkpointing) return Status::OK();
    obs::TraceSpan ckpt_span("train/checkpoint");
    static obs::Counter* checkpoints =
        obs::MetricsRegistry::Global().GetCounter("sam.train.checkpoints");
    checkpoints->Add(1);
    TrainingCheckpoint c;
    c.fingerprint = fingerprint;
    c.epoch = epoch;
    c.step_start = step;
    c.in_epoch = in_epoch;
    c.seconds_elapsed = elapsed_seconds();
    c.epoch_loss_sum = epoch_loss_sum;
    c.epoch_loss_count = epoch_loss_count;
    c.epoch_processed = epoch_processed;
    c.rng_state = rng.SaveState();
    c.order.assign(order.begin(), order.end());
    c.adam_step_count = adam.step_count();
    c.adam_lr = adam.options().lr;
    c.adam_m = adam.moments_m();
    c.adam_v = adam.moments_v();
    for (const auto& p : model->params()) c.params.push_back(p.value());
    c.stats = stats;
    SAM_RETURN_NOT_OK(c.Save(options.checkpoint_dir + "/" +
                             CheckpointFileName(epoch, step)));
    PruneCheckpoints(options.checkpoint_dir, options.checkpoint_keep);
    return Status::OK();
  };

  if (start_epoch >= options.epochs && !resume_in_epoch) {
    // The checkpoint covers a completed run: nothing left to train.
    model->SyncSamplerWeights();
    return stats;
  }

  bool out_of_budget = false;
  bool stop_requested = false;
  for (size_t epoch = start_epoch;
       epoch < options.epochs && !out_of_budget && !stop_requested; ++epoch) {
    // A mid-epoch checkpoint already applied this epoch's start-of-epoch
    // mutations (shuffle, accumulator reset); re-applying them
    // would diverge from the uninterrupted run.
    const bool resumed_mid_epoch = epoch == start_epoch && resume_in_epoch;
    obs::TraceSpan epoch_span("train/epoch");
    // Temperature annealing (geometric).
    double tau = options.gumbel_tau;
    if (options.gumbel_tau_final > 0 && options.epochs > 1) {
      const double t = static_cast<double>(epoch) /
                       static_cast<double>(options.epochs - 1);
      tau = options.gumbel_tau *
            std::pow(options.gumbel_tau_final / options.gumbel_tau, t);
    }
    if (!resumed_mid_epoch) {
      rng.Shuffle(&order);
      epoch_loss_sum = 0;
      epoch_loss_count = 0;
      epoch_processed = 0;
    }
    for (size_t start = resumed_mid_epoch ? resume_step : 0;
         start < order.size(); start += options.batch_size) {
      if (options.step_hook) options.step_hook(epoch, start);
      if (options.stop_flag != nullptr &&
          options.stop_flag->load(std::memory_order_relaxed)) {
        // Graceful stop: the previous step finished; snapshot the exact
        // cursor so resume replays from here bit-identically.
        stop_requested = true;
        SAM_RETURN_NOT_OK(write_checkpoint(epoch, start, /*in_epoch=*/true));
        SAM_LOG(Info) << "stop requested: checkpointed at epoch " << epoch
                      << ", step " << start;
        break;
      }
      if (options.time_budget_seconds > 0 &&
          elapsed_seconds() > options.time_budget_seconds) {
        out_of_budget = true;
        SAM_RETURN_NOT_OK(write_checkpoint(epoch, start, /*in_epoch=*/true));
        break;
      }
      obs::TraceSpan step_span("train/step");
      Stopwatch step_watch;
      const size_t q_in_batch = std::min(options.batch_size, order.size() - start);
      std::vector<const CompiledQuery*> queries(q_in_batch);
      for (size_t i = 0; i < q_in_batch; ++i) {
        queries[i] = &compiled[order[start + i]];
      }
      // Fixed logical shards: contiguous query ranges, all paths of a query
      // in one shard. A batch with fewer queries than shards leaves some
      // shards empty; they run nothing and add nothing.
      size_t live = 0;
      for (size_t s = 0; s < kDpsShards; ++s) {
        Shard& shard = shards[live];
        shard.begin = s * q_in_batch / kDpsShards;
        shard.end = (s + 1) * q_in_batch / kDpsShards;
        if (shard.begin == shard.end) continue;
        shard.first_row = (start + shard.begin) * options.sample_paths;
        ++live;
      }
      const size_t batch_rows = q_in_batch * options.sample_paths;
      team.Run(live, [&](size_t s) {
        Shard& shard = shards[s];
        shard.loss = RunDpsShardTape(
            *model,
            std::span(queries).subspan(shard.begin, shard.end - shard.begin),
            options, epoch, tau, shard.first_row, batch_rows, &leaves[s]);
      });

      // Shard-ordered reduction, then one clipped Adam step. Each element
      // sums the shards in shard order and updates on its own, so running
      // both over fixed ranges on the team moves no bit; the clip norm in
      // between is one serial sum.
      const std::span<const MadeModel::MaskedWeights> live_leaves(
          leaves.data(), live);
      team.Run(tail.size(), [&](size_t i) {
        const RowRange& r = tail[i];
        model->ReduceGrads(live_leaves, r.param, r.begin, r.end);
      });
      double step_loss = 0;
      for (size_t s = 0; s < live; ++s) {
        step_loss += shards[s].loss;
        // Free the shard's leaves and gradients before the next step.
        leaves[s] = MadeModel::MaskedWeights();
      }
      adam.BeginStep();
      team.Run(tail.size(), [&](size_t i) {
        const RowRange& r = tail[i];
        adam.UpdateRange(r.param, r.begin * r.cols, r.end * r.cols);
      });

      epoch_loss_sum += step_loss;
      ++epoch_loss_count;
      epoch_processed += q_in_batch;
      if (obs::MetricsEnabled()) {
        auto& reg = obs::MetricsRegistry::Global();
        static obs::Counter* steps = reg.GetCounter("sam.train.steps");
        static obs::Counter* queries = reg.GetCounter("sam.train.queries");
        static obs::Histogram* step_seconds =
            reg.GetHistogram("sam.train.step_seconds");
        static obs::Gauge* last_loss = reg.GetGauge("sam.train.last_loss");
        steps->Add(1);
        queries->Add(q_in_batch);
        step_seconds->Observe(step_watch.ElapsedSeconds());
        last_loss->Set(step_loss);
      }
    }
    if (stop_requested) break;
    DpsEpochStats es;
    es.epoch = epoch;
    es.mean_loss = epoch_loss_count > 0
                       ? epoch_loss_sum / static_cast<double>(epoch_loss_count)
                       : 0;
    es.seconds_elapsed = elapsed_seconds();
    es.queries_processed = epoch_processed;
    if (callback) callback(es);
    stats.push_back(es);
    if (out_of_budget) break;
    const bool last_epoch = epoch + 1 >= options.epochs;
    if (checkpointing &&
        ((epoch + 1) % options.checkpoint_every_epochs == 0 || last_epoch)) {
      SAM_RETURN_NOT_OK(write_checkpoint(epoch + 1, 0, /*in_epoch=*/false));
    }
  }
  model->SyncSamplerWeights();
  return stats;
}

}  // namespace sam
