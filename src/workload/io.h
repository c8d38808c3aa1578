#pragma once

#include <string>

#include "common/result.h"
#include "query/query.h"

namespace sam {

/// \brief Serialises a workload to a line-oriented text file.
///
/// Format (one query per line, tab-separated sections):
///   relations `r1,r2` \t predicates `t.c<op><type>:<lit>[;...]` \t card
/// Strings are percent-escaped for the separator characters.
Status SaveWorkload(const Workload& workload, const std::string& path);

/// \brief Loads a workload saved with SaveWorkload.
Result<Workload> LoadWorkload(const std::string& path);

/// \brief Serialises a single query as one SaveWorkload line (no newline).
/// The serve protocol embeds queries in this format so that daemon requests
/// and workload files are interchangeable byte-for-byte.
std::string EncodeWorkloadQuery(const Query& q);

/// \brief One predicate as `EncodeWorkloadQuery` writes it (the text between
/// its ';' separators).
std::string EncodeWorkloadPredicate(const Predicate& p);

/// \brief Parses one SaveWorkload-format line. With `require_card` (the
/// workload-file contract) the trailing cardinality section is mandatory;
/// without it (protocol requests) a missing section parses as -1, i.e.
/// unlabelled.
Result<Query> ParseWorkloadQuery(const std::string& line,
                                 bool require_card = false);

}  // namespace sam
