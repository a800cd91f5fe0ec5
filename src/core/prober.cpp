#include "core/prober.h"

#include <algorithm>
#include <utility>

namespace tn::core {

std::vector<net::ProbeReply> Prober::send(
    std::span<const net::Probe> wave) const {
  std::vector<net::ProbeReply> replies;
  for (std::size_t begin = 0; begin < wave.size();) {
    const std::size_t count = std::min(
        static_cast<std::size_t>(current_window()), wave.size() - begin);
    const std::span<const net::Probe> chunk = wave.subspan(begin, count);
    std::uint64_t mark = 0;
    if (controller != nullptr) {
      controller->pace();
      mark = controller->begin_wave();
    }
    std::vector<net::ProbeReply> fresh = engine.probe_batch(chunk);
    if (controller != nullptr) controller->end_wave(mark, chunk, fresh);
    if (begin == 0)
      replies = std::move(fresh);
    else
      replies.insert(replies.end(), fresh.begin(), fresh.end());
    begin += count;
  }
  return replies;
}

}  // namespace tn::core
