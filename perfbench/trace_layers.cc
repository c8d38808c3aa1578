#include "trace_layers.h"

#include <algorithm>

namespace sam::perfbench {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::string LayerOf(const obs::TraceEvent& e) {
  if (e.category == "perfbench") return e.name.substr(0, e.name.find('.'));
  if (StartsWith(e.name, "train/")) return "ar";
  if (StartsWith(e.name, "generate/")) return "sam";
  if (StartsWith(e.name, "exec/")) return "engine";
  if (StartsWith(e.name, "artifact/")) return "storage";
  return "other";
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<obs::TraceEvent>& events) {
  // Per thread, a start-ordered sweep with a stack of open spans finds each
  // span's direct parent (the innermost open span one level up).
  std::map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < events.size(); ++i) {
    by_thread[events[i].tid].push_back(i);
  }
  std::vector<double> child_us(events.size(), 0.0);
  for (auto& [tid, idx] : by_thread) {
    (void)tid;
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (events[a].ts_us != events[b].ts_us) {
        return events[a].ts_us < events[b].ts_us;
      }
      return events[a].depth < events[b].depth;
    });
    std::vector<size_t> open;
    for (size_t i : idx) {
      const obs::TraceEvent& e = events[i];
      while (!open.empty() && events[open.back()].depth >= e.depth) {
        open.pop_back();
      }
      if (!open.empty() && events[open.back()].depth + 1 == e.depth) {
        child_us[open.back()] += e.dur_us;
      }
      open.push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < events.size(); ++i) {
    const double self_us = std::max(0.0, events[i].dur_us - child_us[i]);
    out[LayerOf(events[i])] += self_us * 1e-6;
  }
  return out;
}

double SpanSeconds(const std::vector<obs::TraceEvent>& events,
                   const std::vector<std::string>& prefixes) {
  double us = 0;
  for (const obs::TraceEvent& e : events) {
    for (const std::string& p : prefixes) {
      if (StartsWith(e.name, p)) {
        us += e.dur_us;
        break;
      }
    }
  }
  return us * 1e-6;
}

std::vector<double> SpanDurationsMs(const std::vector<obs::TraceEvent>& events,
                                    const std::string& name) {
  std::vector<double> out;
  for (const obs::TraceEvent& e : events) {
    if (e.name == name) out.push_back(e.dur_us * 1e-3);
  }
  return out;
}

}  // namespace sam::perfbench
