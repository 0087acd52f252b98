#include "simmpi/comm.hpp"

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

namespace amrio::simmpi {

namespace detail {

struct Mailbox {
  std::deque<std::vector<std::byte>> queue;
};

struct State {
  explicit State(int n)
      : size(n), bar(n), slots(static_cast<std::size_t>(n), nullptr) {}

  int size;
  std::barrier<> bar;
  std::vector<const void*> slots;

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;

  std::mutex mail_mu;
  std::condition_variable mail_cv;
  // keyed by (src, dst, tag)
  std::map<std::tuple<int, int, int>, Mailbox> mail;
};

}  // namespace detail

void Comm::barrier() {
  if (size_ == 1) return;
  state_->bar.arrive_and_wait();
  if (state_->failed.load(std::memory_order_acquire)) throw CommAborted();
}

void Comm::put_slot(const void* p) {
  state_->slots[static_cast<std::size_t>(rank_)] = p;
}

const void* Comm::get_slot(int rank) const {
  return state_->slots[static_cast<std::size_t>(rank)];
}

void Comm::send_bytes(const void* data, std::size_t bytes, int dest, int tag) {
  std::vector<std::byte> msg(bytes);
  if (bytes > 0) std::memcpy(msg.data(), data, bytes);
  {
    std::lock_guard<std::mutex> lock(state_->mail_mu);
    state_->mail[{rank_, dest, tag}].queue.push_back(std::move(msg));
  }
  state_->mail_cv.notify_all();
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag, double timeout_sec) {
  std::unique_lock<std::mutex> lock(state_->mail_mu);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_sec);
  auto& box = state_->mail[{src, rank_, tag}];
  while (box.queue.empty()) {
    if (state_->failed.load(std::memory_order_acquire)) throw CommAborted();
    if (state_->mail_cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      throw RecvTimeout("simmpi: recv(src=" + std::to_string(src) +
                        ", tag=" + std::to_string(tag) + ") timed out on rank " +
                        std::to_string(rank_));
    }
  }
  std::vector<std::byte> msg = std::move(box.queue.front());
  box.queue.pop_front();
  return msg;
}

void run_spmd(int nranks, const std::function<void(Comm&)>& fn) {
  AMRIO_EXPECTS_MSG(nranks >= 1, "run_spmd needs at least one rank");
  detail::State state(nranks);

  if (nranks == 1) {
    Comm comm(0, 1, &state);
    fn(comm);
    return;
  }

  auto worker = [&state, &fn](int rank) {
    Comm comm(rank, state.size, &state);
    try {
      fn(comm);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state.error_mu);
        if (!state.first_error) state.first_error = std::current_exception();
      }
      state.failed.store(true, std::memory_order_release);
      state.mail_cv.notify_all();
    }
    // Leave the barrier so peers blocked on a phase are released; in the
    // normal SPMD case every rank drops here at the same phase.
    state.bar.arrive_and_drop();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) threads.emplace_back(worker, r);
  for (auto& t : threads) t.join();

  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace amrio::simmpi
