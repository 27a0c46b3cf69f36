#include "trace.hpp"

#include <cstdio>

namespace perfbench {

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(out,
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, \"args\": "
               "{\"name\": \"wall clock\"}},\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, \"args\": "
               "{\"name\": \"simulated time (one drain)\"}}",
               kWallPid, kSimPid);
  for (const Span& s : spans_) {
    std::fprintf(out,
                 ",\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": %d, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %d, "
                 "\"span\": %llu, \"parent\": %llu}}",
                 s.name, s.pid, s.tid, s.start_us, s.dur_us, s.request,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(out, "\n], \"otherData\": {\"dropped_spans\": %zu}}\n", dropped_);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
