#pragma once
// Online Ownership Policy verifier for promises, after "An Ownership Policy
// and Deadlock Detector for Promises" (Voss & Sarkar, arXiv:2101.01312).
//
// Invariant maintained: every unfulfilled promise has exactly one *owning*
// task — the task responsible for fulfilling it. Ownership starts at the
// maker and moves only by explicit transfer (e.g. at a fork handoff). The
// policy check is the online twin of trace/owp_judgment.hpp: a task may not
// block on a promise whose fulfilment obligation already (transitively)
// reaches it through the accumulated obligation-history graph H, where
//   join(a,b) contributes a → b, and
//   await(a,p) on an unfulfilled p contributes a → owner(p) (owner frozen at
//   await time).
// H drops the edges into terminated tasks that have no out-edges of their
// own: every query ends at a live waiter, so no path can use them (see
// add_edge_locked in owp.cpp), and keeping them grows H by one edge per
// finished child of a long-lived task.
// Like TJ, the policy is conservative: a historical path may no longer be
// live, so rejections are routed through the guarded WFG fallback (see
// core/guarded.hpp) which rules precisely. Races between the policy check
// and concurrent awaits are likewise backstopped by the WFG, which cycle-
// checks every insertion while promise owner edges are live.
//
// The verifier additionally detects *orphaned* promises: when a task
// terminates still owning unfulfilled promises, no task is responsible for
// them any more, so any (present or future) await on them is a guaranteed
// deadlock — reported as such, matching the follow-up paper's detector.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/policy_alloc.hpp"
#include "core/policy_ids.hpp"
#include "core/witness.hpp"

namespace tj::core {

/// Per-promise policy state. Opaque outside the verifier; guarded by the
/// verifier's mutex.
class PromiseNode {
 public:
  std::uint64_t uid() const { return uid_; }

 private:
  friend class OwpVerifier;

  enum class State : std::uint8_t { Unfulfilled, Fulfilled, Orphaned };

  explicit PromiseNode(std::uint64_t uid, std::uint64_t owner)
      : uid_(uid), owner_(owner) {}

  std::uint64_t uid_;
  std::uint64_t owner_;  // meaningful while state_ == Unfulfilled
  State state_ = State::Unfulfilled;
};

/// Policy verdict on an await attempt.
enum class AwaitVerdict : std::uint8_t {
  Allow,           ///< no obligation path from the owner back to the waiter
  RejectCycle,     ///< conservative rejection — refine via the WFG fallback
  RejectOrphaned,  ///< owner terminated without fulfilling: certain deadlock
};

/// Outcome of a transfer attempt.
enum class TransferResult : std::uint8_t {
  Ok,
  NotOwner,    ///< the calling task does not own the promise
  Fulfilled,   ///< nothing to transfer: the promise is already fulfilled
  Orphaned,    ///< the promise was orphaned by a dead owner
  TargetDead,  ///< the receiving task already terminated
};

/// Outcome of a fulfill attempt's policy check.
enum class FulfillResult : std::uint8_t {
  Ok,
  NotOwner,  ///< fulfilled by a non-owner: an ownership violation
  Settled,   ///< already fulfilled or orphaned (caller raises a usage error)
};

class OwpVerifier {
 public:
  OwpVerifier() = default;
  OwpVerifier(const OwpVerifier&) = delete;
  OwpVerifier& operator=(const OwpVerifier&) = delete;
  ~OwpVerifier();

  /// True once any promise has been made: futures-only programs pay exactly
  /// one relaxed load per join and nothing else.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Registers a fresh promise owned by `owner_uid`. Returns its node.
  PromiseNode* on_make(std::uint64_t owner_uid, std::uint64_t promise_uid);

  /// Phase 1 of a transfer: validates ownership and target liveness under the
  /// verifier lock. Does not move ownership (the caller must still clear the
  /// WFG retarget check) — commit_transfer() finishes the move.
  TransferResult check_transfer(const PromiseNode* p, std::uint64_t from_uid,
                                std::uint64_t to_uid) const;
  /// Returns true if the receiver died between check and commit, in which
  /// case the promise was orphaned instead (the caller must propagate that
  /// to the promise's shared state).
  bool commit_transfer(PromiseNode* p, std::uint64_t to_uid);

  /// Phase 1 of a fulfill: the ownership-policy view. Never blocks state
  /// transitions — commit_fulfill() marks the promise settled.
  FulfillResult check_fulfill(const PromiseNode* p,
                              std::uint64_t by_uid) const;
  void commit_fulfill(PromiseNode* p);

  /// The OWP check for await(waiter, p).
  AwaitVerdict permits_await(std::uint64_t waiter_uid,
                             const PromiseNode* p) const;

  /// Records the obligation edge waiter → owner(p) after an await was allowed
  /// to proceed (or cleared by the fallback). No-op if p settled meanwhile.
  void on_await(std::uint64_t waiter_uid, const PromiseNode* p);

  /// The OWP view of join(waiter, target): does target's obligation history
  /// already reach the waiter? Consulted by the gate *in addition to* the
  /// configured future policy once promises exist, since TJ/KJ soundness
  /// does not cover ownership obligations.
  bool permits_join(std::uint64_t waiter_uid, std::uint64_t target_uid) const;

  /// Records the obligation edge waiter → target for a completed join.
  void on_join(std::uint64_t waiter_uid, std::uint64_t target_uid);

  /// Rejection provenance: the obligation chain target ⇝ waiter in H that
  /// made permits_join answer false (Witness::chain, task uids). Cold path
  /// only; the chain is found by BFS under the verifier lock.
  Witness explain_join(std::uint64_t waiter_uid,
                       std::uint64_t target_uid) const;

  /// Rejection provenance for an await: OwpOrphan when the promise is
  /// orphaned, else the chain owner(p) ⇝ waiter that made permits_await
  /// reject. Witness::target is the promise uid (on_promise set).
  Witness explain_await(std::uint64_t waiter_uid, const PromiseNode* p) const;

  /// Marks `uid` dead, prunes its out-edges into dead sinks (and, if that
  /// leaves it a dead sink, the dead tasks' edges into it), and orphans
  /// every unfulfilled promise it still owns.
  /// Returns the orphaned promises' uids (ownership violations: the owner
  /// terminated without fulfilling or transferring).
  std::vector<std::uint64_t> on_task_exit(std::uint64_t uid);

  /// Releases a promise's policy state when its last handle dies.
  void release(PromiseNode* p);

  std::size_t bytes_in_use() const { return alloc_.live_bytes(); }
  std::size_t peak_bytes() const { return alloc_.peak_bytes(); }

  /// Governance hooks mirroring Verifier::state_bytes()/state_nodes().
  std::size_t state_bytes() const { return alloc_.live_bytes(); }
  std::size_t state_nodes() const { return alloc_.live_nodes(); }

  std::string_view name() const { return to_string(PromisePolicy::OWP); }

 private:
  /// A task's out-edges in H, and the set size at which add_edge_locked next
  /// prunes it.
  struct OutEdges {
    std::unordered_set<std::uint64_t> to;
    std::size_t prune_at = 0;
  };

  // Pre: mu_ held. True iff `from` reaches `to` in H (reflexively).
  bool reaches_locked(std::uint64_t from, std::uint64_t to) const;
  // Pre: mu_ held. The shortest path from ⇝ to over H, inclusive of both
  // endpoints ([from] when from == to). Empty when unreachable.
  std::vector<std::uint64_t> chain_locked(std::uint64_t from,
                                          std::uint64_t to) const;
  // Pre: mu_ held.
  void add_edge_locked(std::uint64_t from, std::uint64_t to);
  // Pre: mu_ held.
  bool dead_locked(std::uint64_t uid) const;
  // Pre: mu_ held. A terminated task with no out-edges: no query path can
  // pass through it (see prune_locked).
  bool dead_sink_locked(std::uint64_t uid) const {
    return dead_locked(uid) && !edges_.contains(uid);
  }
  // Pre: mu_ held. Drops the edges of `out` that end at a dead sink.
  void prune_locked(OutEdges& out);
  // Pre: mu_ held; `sink` just became a dead sink. Drops the edges that dead
  // tasks keep into it, and recursively releases each task that this leaves
  // a dead sink too.
  void release_holders_locked(std::uint64_t sink);

  static constexpr std::size_t node_bytes() { return sizeof(PromiseNode); }
  static constexpr std::size_t edge_bytes() { return sizeof(std::uint64_t); }

  std::atomic<bool> active_{false};

  mutable std::mutex mu_;
  // H: obligation-history edges over task uids; no entry is empty.
  //                                                    guarded by mu_
  std::unordered_map<std::uint64_t, OutEdges> edges_;
  // Unfulfilled promises each live task still owns.    guarded by mu_
  std::unordered_map<std::uint64_t, std::unordered_set<PromiseNode*>> owned_;
  // Tasks known to have terminated: bit (uid % 64) of word uid / 64.
  //                                                    guarded by mu_
  std::unordered_map<std::uint64_t, std::uint64_t> dead_words_;
  // For each task that is not a dead sink, the dead tasks with an edge to it
  // (each edge listed once; live tasks prune their own sets).
  //                                                    guarded by mu_
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> held_by_;

  PolicyAllocator alloc_;
};

/// Factory mirroring make_verifier(): nullptr for PromisePolicy::Unverified.
std::unique_ptr<OwpVerifier> make_ownership_verifier(PromisePolicy p);

}  // namespace tj::core
