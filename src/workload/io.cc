#include "workload/io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "storage/artifact_io.h"

namespace sam {

namespace {

// Serialised values are typed so that reload is lossless:
//   i:<int>  d:<double>  s:<escaped string>  n: (NULL)
std::string EncodeValue(const Value& v) {
  if (v.is_null()) return "n:";
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
    return buf;
  }
  std::string out = "s:";
  for (char c : v.AsString()) {
    if (c == '%' || c == ';' || c == '\t' || c == '\n' || c == ',' || c == '|') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

Result<Value> DecodeValue(const std::string& s) {
  if (s.size() < 2 || s[1] != ':') {
    return Status::InvalidArgument("bad value encoding '" + s + "'");
  }
  const std::string body = s.substr(2);
  switch (s[0]) {
    case 'n':
      return Value::Null();
    case 'i':
      return Value(static_cast<int64_t>(std::strtoll(body.c_str(), nullptr, 10)));
    case 'd':
      return Value(std::strtod(body.c_str(), nullptr));
    case 's': {
      std::string out;
      for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '%') {
          if (i + 2 >= body.size()) {
            return Status::InvalidArgument("truncated escape in '" + body + "'");
          }
          out += static_cast<char>(
              std::strtol(body.substr(i + 1, 2).c_str(), nullptr, 16));
          i += 2;
        } else {
          out += body[i];
        }
      }
      return Value(std::move(out));
    }
    default:
      return Status::InvalidArgument("unknown value tag in '" + s + "'");
  }
}

const char* OpTag(PredOp op) {
  switch (op) {
    case PredOp::kEq:
      return "eq";
    case PredOp::kLe:
      return "le";
    case PredOp::kGe:
      return "ge";
    case PredOp::kLt:
      return "lt";
    case PredOp::kGt:
      return "gt";
    case PredOp::kIn:
      return "in";
  }
  return "?";
}

Result<PredOp> ParseOpTag(const std::string& tag) {
  if (tag == "eq") return PredOp::kEq;
  if (tag == "le") return PredOp::kLe;
  if (tag == "ge") return PredOp::kGe;
  if (tag == "lt") return PredOp::kLt;
  if (tag == "gt") return PredOp::kGt;
  if (tag == "in") return PredOp::kIn;
  return Status::InvalidArgument("unknown op tag '" + tag + "'");
}

}  // namespace

std::string EncodeWorkloadPredicate(const Predicate& p) {
  std::string out = p.table;
  out += '|';
  out += p.column;
  out += '|';
  out += OpTag(p.op);
  out += '|';
  if (p.op == PredOp::kIn) {
    for (size_t j = 0; j < p.in_list.size(); ++j) {
      if (j > 0) out += ',';
      out += EncodeValue(p.in_list[j]);
    }
  } else {
    out += EncodeValue(p.literal);
  }
  return out;
}

std::string EncodeWorkloadQuery(const Query& q) {
  std::string out = Join(q.relations, ",");
  out += '\t';
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    if (i > 0) out += ';';
    out += EncodeWorkloadPredicate(q.predicates[i]);
  }
  out += '\t';
  out += std::to_string(q.cardinality);
  return out;
}

Result<Query> ParseWorkloadQuery(const std::string& line, bool require_card) {
  const auto sections = Split(line, '\t');
  if (sections.size() != 3 && (require_card || sections.size() != 2)) {
    return Status::InvalidArgument("bad query format (want relations \\t "
                                   "predicates \\t card)");
  }
  Query q;
  q.relations = Split(sections[0], ',');
  if (!sections[1].empty()) {
    for (const auto& ptext : Split(sections[1], ';')) {
      const auto parts = Split(ptext, '|');
      if (parts.size() != 4) {
        return Status::InvalidArgument("bad predicate '" + ptext + "'");
      }
      Predicate p;
      p.table = parts[0];
      p.column = parts[1];
      SAM_ASSIGN_OR_RETURN(p.op, ParseOpTag(parts[2]));
      if (p.op == PredOp::kIn) {
        for (const auto& vtext : Split(parts[3], ',')) {
          SAM_ASSIGN_OR_RETURN(Value v, DecodeValue(vtext));
          p.in_list.push_back(std::move(v));
        }
      } else {
        SAM_ASSIGN_OR_RETURN(p.literal, DecodeValue(parts[3]));
      }
      q.predicates.push_back(std::move(p));
    }
  }
  if (sections.size() == 3) {
    SAM_ASSIGN_OR_RETURN(q.cardinality, ParseInt64(sections[2]));
  } else {
    q.cardinality = -1;
  }
  return q;
}

Status SaveWorkload(const Workload& workload, const std::string& path) {
  // Serialise fully in memory, then publish with an atomic rename so readers
  // never observe a torn workload file.
  std::ostringstream out;
  for (const auto& q : workload) {
    out << EncodeWorkloadQuery(q) << '\n';
  }
  return AtomicWriteFile(path, out.str());
}

Result<Workload> LoadWorkload(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  Workload out;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto q = ParseWorkloadQuery(line, /*require_card=*/true);
    if (!q.ok()) {
      return Status::InvalidArgument("workload '" + path + "' line " +
                                     std::to_string(line_no) + ": " +
                                     q.status().message());
    }
    out.push_back(q.MoveValue());
  }
  return out;
}

}  // namespace sam
