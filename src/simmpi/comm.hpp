#pragma once
/// \file comm.hpp
/// Simulated MPI: an SPMD communicator over in-process threads.
///
/// The paper's runs use `jsrun -n nproc` on Summit; this library replays the
/// same rank-parallel structure inside one process so the study runs with no
/// MPI installation. Each virtual rank is a thread; collectives synchronize
/// through a shared std::barrier and per-rank slots, and point-to-point
/// messages go through per-(src,dst,tag) mailboxes.
///
/// The surface is what `exec::SpmdEngine` forwards to — the threaded parity
/// reference for the event engine: `barrier`, a rooted one-value `gather`,
/// and tagged `send`/`recv`. Semantics follow MPI where it matters for the
/// proxy workloads:
///  * collectives must be called by every rank (SPMD lockstep);
///  * `gather` delivers data only at the root;
///  * an uncaught exception on any rank aborts the communicator: every other
///    rank receives `CommAborted` at its next synchronization point and
///    `run_spmd` rethrows the original error.
///
/// Only trivially copyable element types are supported (as with MPI datatypes).

#include <cstddef>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace amrio::simmpi {

/// Thrown on surviving ranks when a peer rank failed.
class CommAborted : public std::runtime_error {
 public:
  CommAborted() : std::runtime_error("simmpi: communicator aborted by peer failure") {}
};

/// Thrown when a blocking recv exceeds its timeout (deadlock guard).
class RecvTimeout : public std::runtime_error {
 public:
  explicit RecvTimeout(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
struct State;
}

/// Per-rank handle onto the shared communicator state. Cheap to copy within a
/// rank; never share one Comm object across threads.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Synchronize all ranks. Throws CommAborted if a peer failed.
  void barrier();

  /// Gather one value per rank to root (root gets size() values, others none).
  template <typename T>
  std::vector<T> gather(T local, int root);

  /// Blocking tagged send (buffered: returns once the message is enqueued).
  template <typename T>
  void send(std::span<const T> data, int dest, int tag);

  /// Blocking tagged receive; throws RecvTimeout after `timeout_sec`.
  template <typename T>
  std::vector<T> recv(int src, int tag, double timeout_sec = 30.0);

 private:
  friend void run_spmd(int, const std::function<void(Comm&)>&);
  Comm(int rank, int size, detail::State* state)
      : rank_(rank), size_(size), state_(state) {}

  void put_slot(const void* p);
  const void* get_slot(int rank) const;
  void send_bytes(const void* data, std::size_t bytes, int dest, int tag);
  std::vector<std::byte> recv_bytes(int src, int tag, double timeout_sec);

  int rank_;
  int size_;
  detail::State* state_;
};

/// Run `fn` on `nranks` virtual ranks (threads). Blocks until all ranks
/// finish; rethrows the first rank exception, if any.
void run_spmd(int nranks, const std::function<void(Comm&)>& fn);

// ---------------------------------------------------------------------------
// template implementations

template <typename T>
std::vector<T> Comm::gather(T local, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  AMRIO_EXPECTS(root >= 0 && root < size_);
  if (size_ == 1) return {local};
  put_slot(&local);
  barrier();
  std::vector<T> out;
  if (rank_ == root) {
    out.reserve(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r)
      out.push_back(*static_cast<const T*>(get_slot(r)));
  }
  barrier();
  return out;
}

template <typename T>
void Comm::send(std::span<const T> data, int dest, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  AMRIO_EXPECTS(dest >= 0 && dest < size_);
  AMRIO_EXPECTS(dest != rank_);
  send_bytes(data.data(), data.size_bytes(), dest, tag);
}

template <typename T>
std::vector<T> Comm::recv(int src, int tag, double timeout_sec) {
  static_assert(std::is_trivially_copyable_v<T>);
  AMRIO_EXPECTS(src >= 0 && src < size_);
  AMRIO_EXPECTS(src != rank_);
  const std::vector<std::byte> bytes = recv_bytes(src, tag, timeout_sec);
  AMRIO_ENSURES(bytes.size() % sizeof(T) == 0);
  std::vector<T> out(bytes.size() / sizeof(T));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

}  // namespace amrio::simmpi
