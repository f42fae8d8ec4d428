#include "trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

struct Event {
  std::string name;
  char phase = 'X';
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::string trace_id;
};

/// Value after `"key": ` in one line of obs::write_trace_json output
/// (strings without their quotes); empty when the key is absent.
std::string field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    return line.substr(begin, line.find('"', begin) - begin);
  }
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

std::int64_t micros_to_ns(const std::string& text) {
  return static_cast<std::int64_t>(std::llround(std::stod(text) * 1000.0));
}

std::vector<Event> parse_events(const std::string& json) {
  std::vector<Event> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\": ", 0) != 0) continue;
    Event event;
    event.name = field(line, "name");
    event.phase = field(line, "ph").c_str()[0];
    event.tid = static_cast<std::uint32_t>(std::stoul(field(line, "tid")));
    event.start_ns = micros_to_ns(field(line, "ts"));
    if (event.phase == 'X') event.dur_ns = micros_to_ns(field(line, "dur"));
    event.trace_id = field(line, "trace_id");
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

const SpanTotals& TraceStats::span(const std::string& name) const {
  static const SpanTotals kNone;
  const auto it = spans.find(name);
  return it == spans.end() ? kNone : it->second;
}

TraceStats collect_trace_stats() {
  std::ostringstream out;
  manthan::obs::write_trace_json(out);
  std::vector<Event> events = parse_events(out.str());

  TraceStats stats;
  stats.events = events.size();
  stats.dropped = manthan::obs::trace_dropped_events();

  // Spans of one thread nest strictly (RAII scopes), so a stack over
  // start-ordered spans finds each span's direct parent.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.dur_ns > b.dur_ns;
                   });
  std::vector<std::int64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    if (event.phase != 'X') continue;
    if (i > 0 && events[i - 1].tid != event.tid) stack.clear();
    const std::int64_t end = event.start_ns + event.dur_ns;
    while (!stack.empty()) {
      const Event& top = events[stack.back()];
      if (end <= top.start_ns + top.dur_ns) break;  // top encloses event
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += event.dur_ns;
    stack.push_back(i);
  }

  std::unordered_map<std::string, std::vector<std::int64_t>> submit_ends;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    if (event.phase != 'X') continue;
    SpanTotals& totals = stats.spans[event.name];
    ++totals.count;
    totals.inclusive_s += 1e-9 * static_cast<double>(event.dur_ns);
    totals.self_s += 1e-9 * static_cast<double>(event.dur_ns - child_ns[i]);
    if (event.name == "service.submit") {
      submit_ends[event.trace_id].push_back(event.start_ns + event.dur_ns);
    }
  }
  for (auto& entry : submit_ends) {
    std::sort(entry.second.begin(), entry.second.end());
  }
  for (const Event& event : events) {
    if (event.phase != 'X' || event.name != "service.job") continue;
    const auto it = submit_ends.find(event.trace_id);
    if (it == submit_ends.end()) continue;
    const auto after = std::upper_bound(it->second.begin(), it->second.end(),
                                        event.start_ns);
    if (after == it->second.begin()) continue;
    stats.queue_wait_s.push_back(
        1e-9 * static_cast<double>(event.start_ns - *(after - 1)));
  }
  return stats;
}

}  // namespace perfbench
