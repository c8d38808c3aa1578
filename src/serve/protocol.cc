#include "serve/protocol.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"
#include "workload/io.h"

namespace sam::serve {

namespace {

/// Numbers on the wire: cardinalities as plain integers, estimates with 17
/// significant digits so the double round-trips exactly (the bit-identity
/// contract between served and batch estimates).
std::string NumberToJson(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<int64_t> MemberInt(const obs::JsonValue& obj, const std::string& key,
                          int64_t fallback) {
  const obs::JsonValue* m = obj.Find(key);
  if (m == nullptr) return fallback;
  if (m->type != obs::JsonValue::Type::kNumber) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  // Converting a double outside int64's range is undefined behaviour.
  const double v = m->number_value;
  if (!(v >= -0x1p63 && v < 0x1p63)) {
    return Status::InvalidArgument("field '" + key + "' is out of range");
  }
  return static_cast<int64_t>(v);
}

Result<std::string> MemberString(const obs::JsonValue& obj,
                                 const std::string& key,
                                 const std::string& fallback) {
  const obs::JsonValue* m = obj.Find(key);
  if (m == nullptr) return fallback;
  if (m->type != obs::JsonValue::Type::kString) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return m->string_value;
}

Result<bool> MemberBool(const obs::JsonValue& obj, const std::string& key,
                        bool fallback) {
  const obs::JsonValue* m = obj.Find(key);
  if (m == nullptr) return fallback;
  if (m->type != obs::JsonValue::Type::kBool) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return m->bool_value;
}

Result<Query> ParseEmbeddedQuery(const std::string& text) {
  auto q = ParseWorkloadQuery(text, /*require_card=*/false);
  if (!q.ok()) {
    return Status::InvalidArgument("bad query '" + text + "': " +
                                   q.status().message());
  }
  return q;
}

Status FillEstimatorFields(const obs::JsonValue& root, Request* req) {
  std::string estimator;
  SAM_ASSIGN_OR_RETURN(estimator, MemberString(root, "estimator", "true"));
  if (estimator == "true") {
    req->use_model = false;
  } else if (estimator == "model") {
    req->use_model = true;
  } else {
    return Status::InvalidArgument(
        "field 'estimator' must be \"true\" or \"model\", got \"" + estimator +
        "\"");
  }
  SAM_ASSIGN_OR_RETURN(req->paths, MemberInt(root, "paths", 0));
  if (req->paths < 0) {
    return Status::InvalidArgument("field 'paths' must be >= 0");
  }
  return Status::OK();
}

}  // namespace

Status CheckModelEstimateWork(const Request& req) {
  if (req.paths < 1 || req.paths > kMaxPathsPerQuery) {
    return Status::InvalidArgument("field 'paths' must be in [1, " +
                                   std::to_string(kMaxPathsPerQuery) + "]");
  }
  if (static_cast<int64_t>(req.queries.size()) >
      kMaxPathsPerRequest / req.paths) {
    return Status::InvalidArgument("queries x paths must be at most " +
                                   std::to_string(kMaxPathsPerRequest));
  }
  return Status::OK();
}

Result<Request> ParseRequest(const std::string& line, int64_t* id_out) {
  if (id_out != nullptr) *id_out = -1;
  auto parsed = obs::ParseJson(line);
  if (!parsed.ok()) {
    return Status::InvalidArgument("request is not valid JSON: " +
                                   parsed.status().message());
  }
  const obs::JsonValue& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request req;
  SAM_ASSIGN_OR_RETURN(req.id, MemberInt(root, "id", -1));
  if (id_out != nullptr) *id_out = req.id;

  std::string type;
  SAM_ASSIGN_OR_RETURN(type, MemberString(root, "type", ""));
  if (type.empty()) {
    return Status::InvalidArgument("field 'type' is required");
  }

  if (type == "ping") {
    req.type = RequestType::kPing;
    return req;
  }
  if (type == "estimate") {
    req.type = RequestType::kEstimate;
    std::string text;
    SAM_ASSIGN_OR_RETURN(text, MemberString(root, "query", ""));
    if (text.empty()) {
      return Status::InvalidArgument("estimate: field 'query' is required");
    }
    SAM_ASSIGN_OR_RETURN(Query q, ParseEmbeddedQuery(text));
    req.queries.push_back(std::move(q));
    SAM_RETURN_NOT_OK(FillEstimatorFields(root, &req));
    return req;
  }
  if (type == "estimate_batch") {
    req.type = RequestType::kEstimateBatch;
    const obs::JsonValue* arr = root.Find("queries");
    if (arr == nullptr || !arr->is_array()) {
      return Status::InvalidArgument(
          "estimate_batch: field 'queries' must be an array of strings");
    }
    if (arr->array_items.empty()) {
      return Status::InvalidArgument(
          "estimate_batch: field 'queries' must be non-empty");
    }
    for (const obs::JsonValue& item : arr->array_items) {
      if (item.type != obs::JsonValue::Type::kString) {
        return Status::InvalidArgument(
            "estimate_batch: every entry of 'queries' must be a string");
      }
      SAM_ASSIGN_OR_RETURN(Query q, ParseEmbeddedQuery(item.string_value));
      req.queries.push_back(std::move(q));
    }
    SAM_RETURN_NOT_OK(FillEstimatorFields(root, &req));
    return req;
  }
  if (type == "generate") {
    req.type = RequestType::kGenerate;
    SAM_ASSIGN_OR_RETURN(req.gen_out, MemberString(root, "out", ""));
    SAM_ASSIGN_OR_RETURN(req.gen_work, MemberString(root, "work", ""));
    SAM_ASSIGN_OR_RETURN(req.gen_resume, MemberBool(root, "resume", false));
    if (req.gen_out.empty() || req.gen_work.empty()) {
      return Status::InvalidArgument(
          "generate: fields 'out' and 'work' are required");
    }
    return req;
  }
  if (type == "generate_status") {
    req.type = RequestType::kGenerateStatus;
    SAM_ASSIGN_OR_RETURN(req.job, MemberInt(root, "job", -1));
    if (req.job < 0) {
      return Status::InvalidArgument(
          "generate_status: field 'job' is required");
    }
    return req;
  }
  if (type == "stats") {
    req.type = RequestType::kStats;
    return req;
  }
  return Status::InvalidArgument("unknown request type '" + type + "'");
}

std::string ErrorResponse(int64_t id, const Status& status) {
  return "{\"id\": " + std::to_string(id) +
         ", \"ok\": false, \"code\": \"" +
         StatusCodeToString(status.code()) + "\", \"error\": \"" +
         obs::EscapeJson(status.message()) + "\"}";
}

std::string PongResponse(int64_t id) {
  return "{\"id\": " + std::to_string(id) +
         ", \"ok\": true, \"type\": \"pong\"}";
}

std::string CardsResponse(int64_t id, const std::vector<int64_t>& cards) {
  std::string out =
      "{\"id\": " + std::to_string(id) + ", \"ok\": true, \"cards\": [";
  for (size_t i = 0; i < cards.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(cards[i]);
  }
  out += "]}";
  return out;
}

std::string EstimatesResponse(int64_t id, const std::vector<double>& estimates) {
  std::string out =
      "{\"id\": " + std::to_string(id) + ", \"ok\": true, \"estimates\": [";
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (i > 0) out += ", ";
    out += NumberToJson(estimates[i]);
  }
  out += "]}";
  return out;
}

std::string GenerateStartedResponse(int64_t id, int64_t job) {
  return "{\"id\": " + std::to_string(id) + ", \"ok\": true, \"job\": " +
         std::to_string(job) + "}";
}

std::string GenerateStatusResponse(int64_t id, const JobStatus& status) {
  return "{\"id\": " + std::to_string(id) + ", \"ok\": true, \"job\": " +
         std::to_string(status.job) + ", \"state\": \"" +
         obs::EscapeJson(status.state) +
         "\", \"rows\": " + std::to_string(status.rows_written) +
         ", \"steps\": " + std::to_string(status.steps_executed) +
         ", \"steps_total\": " + std::to_string(status.steps_total) +
         ", \"out\": \"" + obs::EscapeJson(status.out_dir) +
         "\", \"error\": \"" + obs::EscapeJson(status.error) + "\"}";
}

std::string StatsResponse(int64_t id, const std::string& stats_object) {
  return "{\"id\": " + std::to_string(id) + ", \"ok\": true, \"stats\": " +
         stats_object + "}";
}

}  // namespace sam::serve
