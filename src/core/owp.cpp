#include "core/owp.hpp"

#include <algorithm>
#include <vector>

namespace tj::core {

namespace {
// A task's out-edge set is pruned when it reaches this size, then again at
// twice its size after each prune: amortized O(1) per inserted edge.
constexpr std::size_t kPruneMin = 8;
}  // namespace

OwpVerifier::~OwpVerifier() = default;

bool OwpVerifier::reaches_locked(std::uint64_t from, std::uint64_t to) const {
  if (from == to) return true;
  std::vector<std::uint64_t> stack{from};
  std::unordered_set<std::uint64_t> visited{from};
  while (!stack.empty()) {
    const std::uint64_t cur = stack.back();
    stack.pop_back();
    const auto it = edges_.find(cur);
    if (it == edges_.end()) continue;
    for (const std::uint64_t next : it->second.to) {
      if (next == to) return true;
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

// Pruning H. Every query asks whether some task reaches a *live* task: the
// waiter of permits_join/permits_await and of their explain_ twins is the
// running caller. A path to a live task that enters a dead task x must leave
// x again, by one of x's out-edges. A task adds out-edges only while it runs,
// so a dead task without out-edges (a dead sink) never gains one, and every
// edge into it is dead weight: dropping it changes no answer.
void OwpVerifier::add_edge_locked(std::uint64_t from, std::uint64_t to) {
  // A completed join's target has already exited (task_exited runs before
  // Done is published), so the common join edge is never stored at all.
  if (dead_sink_locked(to)) return;
  OutEdges& out = edges_[from];
  if (!out.to.insert(to).second) return;
  alloc_.add(edge_bytes());
  if (out.to.size() >= std::max(out.prune_at, kPruneMin)) {
    prune_locked(out);
    out.prune_at = 2 * out.to.size();
  }
}

void OwpVerifier::prune_locked(OutEdges& out) {
  std::erase_if(out.to, [this](std::uint64_t x) {
    if (!dead_sink_locked(x)) return false;
    alloc_.sub(edge_bytes());
    return true;
  });
}

void OwpVerifier::release_holders_locked(std::uint64_t sink) {
  if (!held_by_.contains(sink)) return;  // every task exit comes here
  std::vector<std::uint64_t> sinks{sink};
  while (!sinks.empty()) {
    const std::uint64_t x = sinks.back();
    sinks.pop_back();
    const auto held = held_by_.find(x);
    if (held == held_by_.end()) continue;
    for (const std::uint64_t d : held->second) {
      alloc_.sub(edge_bytes());
      // d is dead, so only this loop shrinks its set, once per edge.
      const auto out = edges_.find(d);
      if (out == edges_.end() || out->second.to.erase(x) == 0) continue;
      alloc_.sub(edge_bytes());
      if (out->second.to.empty()) {
        edges_.erase(out);
        sinks.push_back(d);
      }
    }
    held_by_.erase(held);
  }
}

bool OwpVerifier::dead_locked(std::uint64_t uid) const {
  const auto it = dead_words_.find(uid / 64);
  return it != dead_words_.end() && ((it->second >> (uid % 64)) & 1u) != 0;
}

PromiseNode* OwpVerifier::on_make(std::uint64_t owner_uid,
                                  std::uint64_t promise_uid) {
  active_.store(true, std::memory_order_relaxed);
  auto* node = new PromiseNode(promise_uid, owner_uid);
  alloc_.add(node_bytes());
  alloc_.note_node_created();
  std::scoped_lock lock(mu_);
  owned_[owner_uid].insert(node);
  return node;
}

TransferResult OwpVerifier::check_transfer(const PromiseNode* p,
                                           std::uint64_t from_uid,
                                           std::uint64_t to_uid) const {
  std::scoped_lock lock(mu_);
  switch (p->state_) {
    case PromiseNode::State::Fulfilled:
      return TransferResult::Fulfilled;
    case PromiseNode::State::Orphaned:
      return TransferResult::Orphaned;
    case PromiseNode::State::Unfulfilled:
      break;
  }
  if (p->owner_ != from_uid) return TransferResult::NotOwner;
  if (dead_locked(to_uid)) return TransferResult::TargetDead;
  return TransferResult::Ok;
}

bool OwpVerifier::commit_transfer(PromiseNode* p, std::uint64_t to_uid) {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) return false;
  const auto it = owned_.find(p->owner_);
  if (it != owned_.end()) it->second.erase(p);
  p->owner_ = to_uid;
  if (dead_locked(to_uid)) {
    // The receiver terminated between check and commit: nobody is left to
    // fulfill the promise — orphan it now rather than losing it.
    p->state_ = PromiseNode::State::Orphaned;
    return true;
  }
  owned_[to_uid].insert(p);
  return false;
}

FulfillResult OwpVerifier::check_fulfill(const PromiseNode* p,
                                         std::uint64_t by_uid) const {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) {
    return FulfillResult::Settled;
  }
  return p->owner_ == by_uid ? FulfillResult::Ok : FulfillResult::NotOwner;
}

void OwpVerifier::commit_fulfill(PromiseNode* p) {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) return;
  const auto it = owned_.find(p->owner_);
  if (it != owned_.end()) it->second.erase(p);
  p->state_ = PromiseNode::State::Fulfilled;
}

AwaitVerdict OwpVerifier::permits_await(std::uint64_t waiter_uid,
                                        const PromiseNode* p) const {
  std::scoped_lock lock(mu_);
  switch (p->state_) {
    case PromiseNode::State::Fulfilled:
      return AwaitVerdict::Allow;  // never blocks
    case PromiseNode::State::Orphaned:
      return AwaitVerdict::RejectOrphaned;
    case PromiseNode::State::Unfulfilled:
      break;
  }
  // Blocking on a promise whose obligation already reaches the waiter
  // (including owning it yourself) could self-deadlock: reject and let the
  // precise fallback rule.
  return reaches_locked(p->owner_, waiter_uid) ? AwaitVerdict::RejectCycle
                                               : AwaitVerdict::Allow;
}

void OwpVerifier::on_await(std::uint64_t waiter_uid, const PromiseNode* p) {
  std::scoped_lock lock(mu_);
  if (p->state_ != PromiseNode::State::Unfulfilled) return;
  add_edge_locked(waiter_uid, p->owner_);
}

bool OwpVerifier::permits_join(std::uint64_t waiter_uid,
                               std::uint64_t target_uid) const {
  std::scoped_lock lock(mu_);
  return !reaches_locked(target_uid, waiter_uid);
}

void OwpVerifier::on_join(std::uint64_t waiter_uid, std::uint64_t target_uid) {
  std::scoped_lock lock(mu_);
  add_edge_locked(waiter_uid, target_uid);
}

std::vector<std::uint64_t> OwpVerifier::chain_locked(std::uint64_t from,
                                                     std::uint64_t to) const {
  // BFS with parent links.
  if (from == to) return {from};
  std::unordered_map<std::uint64_t, std::uint64_t> parent;
  std::vector<std::uint64_t> frontier{from};
  parent.emplace(from, from);
  while (!frontier.empty()) {
    std::vector<std::uint64_t> next;
    for (const std::uint64_t cur : frontier) {
      const auto it = edges_.find(cur);
      if (it == edges_.end()) continue;
      for (const std::uint64_t succ : it->second.to) {
        if (!parent.emplace(succ, cur).second) continue;
        if (succ == to) {
          std::vector<std::uint64_t> path{to};
          for (std::uint64_t n = cur; ; n = parent.at(n)) {
            path.push_back(n);
            if (n == from) break;
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        next.push_back(succ);
      }
    }
    frontier = std::move(next);
  }
  return {};
}

Witness OwpVerifier::explain_join(std::uint64_t waiter_uid,
                                  std::uint64_t target_uid) const {
  Witness w;
  w.kind = WitnessKind::OwpChain;
  w.policy = PolicyChoice::None;  // OWP is the promise policy, not a join one
  w.waiter = waiter_uid;
  w.target = target_uid;
  std::scoped_lock lock(mu_);
  w.chain = chain_locked(target_uid, waiter_uid);
  return w;
}

Witness OwpVerifier::explain_await(std::uint64_t waiter_uid,
                                   const PromiseNode* p) const {
  Witness w;
  w.policy = PolicyChoice::None;
  w.on_promise = true;
  w.waiter = waiter_uid;
  w.target = p->uid_;
  std::scoped_lock lock(mu_);
  if (p->state_ == PromiseNode::State::Orphaned) {
    w.kind = WitnessKind::OwpOrphan;
    return w;
  }
  w.kind = WitnessKind::OwpChain;
  w.chain = chain_locked(p->owner_, waiter_uid);
  return w;
}

std::vector<std::uint64_t> OwpVerifier::on_task_exit(std::uint64_t uid) {
  // Unconditional (no active() fast-path): the dead-task set must be complete
  // for check_transfer/commit_transfer to reliably refuse handoffs to
  // terminated tasks — a stale relaxed read of active_ here could let a
  // transfer land on a dead receiver and strand its awaiters.
  std::scoped_lock lock(mu_);
  dead_words_[uid / 64] |= std::uint64_t{1} << (uid % 64);
  // This task adds no more out-edges: drop the ones to dead sinks now. The
  // targets it still reaches drop theirs when they become dead sinks, which
  // makes it a dead sink itself once all its obligations have exited.
  if (const auto out = edges_.find(uid); out != edges_.end()) {
    prune_locked(out->second);
    if (out->second.to.empty()) {
      edges_.erase(out);
    } else {
      for (const std::uint64_t x : out->second.to) {
        held_by_[x].push_back(uid);
        alloc_.add(edge_bytes());
      }
    }
  }
  if (!edges_.contains(uid)) release_holders_locked(uid);
  const auto it = owned_.find(uid);
  if (it == owned_.end()) return {};
  std::vector<std::uint64_t> orphans;
  orphans.reserve(it->second.size());
  for (PromiseNode* p : it->second) {
    p->state_ = PromiseNode::State::Orphaned;
    orphans.push_back(p->uid_);
  }
  owned_.erase(it);
  return orphans;
}

void OwpVerifier::release(PromiseNode* p) {
  if (p == nullptr) return;
  {
    std::scoped_lock lock(mu_);
    if (p->state_ == PromiseNode::State::Unfulfilled) {
      const auto it = owned_.find(p->owner_);
      if (it != owned_.end()) it->second.erase(p);
    }
  }
  alloc_.sub(node_bytes());
  alloc_.note_node_released();
  delete p;
}

}  // namespace tj::core
