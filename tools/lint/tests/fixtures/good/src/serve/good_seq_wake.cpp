// Fixture: command-channel stores each followed by a wake on the same
// counter, and stores the seq-wake check must leave alone. None of these
// may be flagged.
#include <atomic>
#include <cstdint>

namespace fixture {

struct Header {
  std::uint64_t cmd_seq = 0;
  std::uint64_t ack_seq = 0;
  std::uint64_t engine_ticks = 0;
};

void seq_wake(std::uint64_t& seq);

void post(Header& h, std::uint64_t seq) {
  std::atomic_ref<std::uint64_t>(h.cmd_seq)
      .store(seq, std::memory_order_release);
  seq_wake(h.cmd_seq);
}

void ack(Header* h, std::uint64_t seq, std::uint64_t ticks) {
  const std::atomic_ref<std::uint64_t> acked(h->ack_seq);
  // Export fields are not waited on: no wake needed.
  std::atomic_ref<std::uint64_t>(h->engine_ticks)
      .store(ticks, std::memory_order_relaxed);
  acked.store(seq, std::memory_order_release);
  seq_wake(h->ack_seq);
}

// Loads are the waiting side; only stores need a wake.
std::uint64_t acked(const Header& h) {
  return std::atomic_ref<const std::uint64_t>(h.ack_seq)
      .load(std::memory_order_acquire);
}

}  // namespace fixture
