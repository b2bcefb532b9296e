// Fixture: seeded lost wakes on the command channel — each line tagged
// EXPECT must be flagged by seq-wake.
#include <atomic>
#include <cstdint>

namespace fixture {

struct Header {
  std::uint64_t cmd_seq = 0;
  std::uint64_t ack_seq = 0;
};

void seq_wake(std::uint64_t& seq);

// A post that bumps cmd_seq and never wakes the waiting worker.
void post(Header& h, std::uint64_t seq) {
  std::atomic_ref<std::uint64_t>(h.cmd_seq)
      .store(seq, std::memory_order_release);  // EXPECT seq-wake
}

// An ack through a named reference, with no wake.
void ack(Header& h, std::uint64_t seq) {
  const std::atomic_ref<std::uint64_t> acked(h.ack_seq);
  acked.store(seq, std::memory_order_release);  // EXPECT seq-wake
}

// A wake on the wrong counter does not wake the ack waiter.
void ack_wrong_field(Header& h, std::uint64_t seq) {
  std::atomic_ref<std::uint64_t>(h.ack_seq).store(  // EXPECT seq-wake
      seq, std::memory_order_release);
  seq_wake(h.cmd_seq);
}

// A wake BEFORE the store wakes the peer into an unchanged counter.
void post_wake_first(Header& h, std::uint64_t seq) {
  seq_wake(h.cmd_seq);
  std::atomic_ref<std::uint64_t>(h.cmd_seq).store(  // EXPECT seq-wake
      seq, std::memory_order_release);
}

// A wake after the block does not cover a branch that leaves early.
[[noreturn]] void exit_now();
void ack_stop(Header& h, std::uint64_t seq, bool stop) {
  if (stop) {
    std::atomic_ref<std::uint64_t>(h.ack_seq).store(  // EXPECT seq-wake
        seq, std::memory_order_release);
    exit_now();
  }
  std::atomic_ref<std::uint64_t>(h.ack_seq).store(seq,
                                                  std::memory_order_release);
  seq_wake(h.ack_seq);
}

// The wake in another function does not count.
void post_then_wake_elsewhere(Header& h, std::uint64_t seq) {
  std::atomic_ref<std::uint64_t>(h.cmd_seq).store(  // EXPECT seq-wake
      seq, std::memory_order_release);
}
void wake_elsewhere(Header& h) { seq_wake(h.cmd_seq); }

}  // namespace fixture
