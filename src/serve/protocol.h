#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/query.h"

namespace sam::serve {

/// \brief Wire protocol of the `samdb serve` daemon.
///
/// Requests and responses are line-delimited JSON over TCP: one JSON object
/// per line, newline-terminated, no framing beyond that. Queries are embedded
/// as workload-text strings (the `SaveWorkload` line format, cardinality
/// section optional), so a daemon request and a workload file line are
/// interchangeable byte-for-byte.
///
/// Requests:
///   {"id": 1, "type": "ping"}
///   {"id": 2, "type": "estimate", "query": "census\tcensus|age|ge|i:30",
///    "estimator": "true" | "model", "paths": 400}
///   {"id": 3, "type": "estimate_batch", "queries": ["...", ...],
///    "estimator": ..., "paths": ...}
///   {"id": 4, "type": "generate", "out": "/dir", "work": "/dir.work",
///    "resume": false}
///   {"id": 5, "type": "generate_status", "job": 7}
///   {"id": 6, "type": "stats"}
///
/// Responses (single line each; `id` echoes the request):
///   {"id": 1, "ok": true, "type": "pong"}
///   {"id": 2, "ok": true, "cards": [123]}          // estimator "true"
///   {"id": 2, "ok": true, "estimates": [117.4]}    // estimator "model"
///   {"id": 4, "ok": true, "job": 7}
///   {"id": 5, "ok": true, "job": 7, "state": "running", "rows": 1000, ...}
///   {"id": 6, "ok": true, "stats": {...}}
///   {"id": N, "ok": false, "code": "InvalidArgument", "error": "..."}
enum class RequestType {
  kPing,
  kEstimate,
  kEstimateBatch,
  kGenerate,
  kGenerateStatus,
  kStats,
};

struct Request {
  int64_t id = -1;
  RequestType type = RequestType::kPing;

  /// Parsed queries (one for kEstimate, many for kEstimateBatch).
  std::vector<Query> queries;
  /// False: true cardinality via the executor. True: model estimate via
  /// progressive sampling.
  bool use_model = false;
  /// Sample paths for model estimates (0 = server default); see
  /// `CheckModelEstimateWork` for the caps.
  int64_t paths = 0;

  // kGenerate.
  std::string gen_out;
  std::string gen_work;
  bool gen_resume = false;

  // kGenerateStatus.
  int64_t job = -1;
};

/// Caps on one request's model-estimate work: every sample path is a
/// trajectory row that the dispatcher allocates (8 bytes) and runs. The
/// dispatcher also splits a round's model estimates into calls of at most
/// `kMaxPathsPerRequest` paths, so the cap bounds one call's memory too.
inline constexpr int64_t kMaxPathsPerQuery = int64_t{1} << 16;
inline constexpr int64_t kMaxPathsPerRequest = int64_t{1} << 20;

/// Checks a model-estimate request, its `paths` resolved (0 replaced by the
/// server default), against both caps.
Status CheckModelEstimateWork(const Request& req);

/// Parses one request line. On failure the error names the offending field;
/// when the line was at least a JSON object with a numeric "id", `*id_out` is
/// set so the error response can still be correlated by the client.
Result<Request> ParseRequest(const std::string& line, int64_t* id_out);

/// State of one asynchronous generation job, as reported to clients.
struct JobStatus {
  int64_t job = -1;
  std::string state;  ///< "queued" | "running" | "done" | "failed" | "stopped".
  uint64_t rows_written = 0;
  uint64_t steps_executed = 0;
  uint64_t steps_total = 0;
  std::string out_dir;
  std::string error;  ///< Non-empty for "failed".
};

// Response builders. Each returns one line of JSON without the trailing
// newline; the transport appends it.
std::string ErrorResponse(int64_t id, const Status& status);
std::string PongResponse(int64_t id);
std::string CardsResponse(int64_t id, const std::vector<int64_t>& cards);
std::string EstimatesResponse(int64_t id, const std::vector<double>& estimates);
std::string GenerateStartedResponse(int64_t id, int64_t job);
std::string GenerateStatusResponse(int64_t id, const JobStatus& status);
/// `stats_object` must already be a serialised JSON object.
std::string StatsResponse(int64_t id, const std::string& stats_object);

}  // namespace sam::serve
