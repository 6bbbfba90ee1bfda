// Deployment-wide dense indexing of node identities.
//
// The per-(peer, AU) protocol substrates — known-peers reputation tables,
// reference lists, introduction tables, vote tallies — are all keyed by
// NodeId. The seed kept each of them in a node-based ordered container,
// paying an allocation per first contact and an ordered walk per lookup on
// the invitation/vote/poll-conclusion hot path. Like metrics::SlotRegistry
// did for the metrics pipeline (PR 2), this registry assigns every identity
// in the deployment a small dense index once, at scenario setup; the
// substrates then use flat slot arrays and the hot path is an index load.
//
// Unlike the metrics registry, node ids are *not* near-dense: adversary
// minions live at high bases (1<<22 and up, "unconstrained identities",
// §3.1), so the id→index table is a small open-addressed hash table rather
// than a direct-indexed vector. Lookups never allocate.
//
// Ordering contract (determinism): slot index order equals NodeId order.
// Iterating slots 0..count-1 therefore yields identities in ascending
// NodeId order — exactly the iteration order of the std::map/std::set based
// seed containers whose walks feed RNG draws and message emission. The
// contract is enforced by requiring registration in ascending NodeId order
// (asserted), which every caller satisfies naturally: scenario setup
// registers loyal peers, then newcomers, then adversary minions, whose id
// bases ascend.
//
// Registration contract: identities register at scenario setup, before any
// substrate operation mentions them. An id that was never registered is
// still legal everywhere (the admission-flood adversary spoofs unbounded
// fresh ids); substrates route such ids through a small ordered-map
// overflow path with seed-identical semantics. Registering an id after a
// substrate has already seen it unregistered is tolerated too — reads fall
// back to the overflow entry and mutators migrate it into the slot — but
// it forfeits the O(1) fast path until the migration happens, so keep
// registration ahead of traffic.
#ifndef LOCKSS_NET_NODE_SLOT_REGISTRY_HPP_
#define LOCKSS_NET_NODE_SLOT_REGISTRY_HPP_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "net/node_id.hpp"
#include "sim/rng.hpp"

namespace lockss::net {

class NodeSlotRegistry {
 public:
  static constexpr uint32_t kUnassigned = UINT32_MAX;

  // Idempotent; returns the dense index. New ids must arrive in ascending
  // NodeId order (see the ordering contract above). Registration is
  // setup-time work and may allocate; lookups never do.
  uint32_t register_node(NodeId id) {
    assert(id.valid());
    const uint32_t existing = index_of(id);
    if (existing != kUnassigned) {
      return existing;
    }
    // Out-of-order registration silently breaks the slot-order == NodeId-order
    // contract every dense substrate builds on, so
    // it is a hard error even in builds that compile asserts out — an assert
    // alone would let a release build corrupt every substrate walk.
    if (!nodes_.empty() && id.value <= nodes_.back().value) {
      std::fprintf(stderr,
                   "NodeSlotRegistry: out-of-order registration of node %u after %u "
                   "(registration must be in ascending NodeId order)\n",
                   id.value, nodes_.back().value);
      std::abort();
    }
    const uint32_t index = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(id);
    // 64-bit load-factor math: the 10x numerator must not wrap for slot
    // counts in the millions on any platform (size_t is 32 bits on some).
    if ((static_cast<uint64_t>(nodes_.size()) + 1) * 10 >=
        static_cast<uint64_t>(table_.size()) * 7) {  // load factor 0.7
      rehash();
    } else {
      place(id, index);
    }
    return index;
  }

  // kUnassigned when the id was never registered.
  uint32_t index_of(NodeId id) const {
    if (table_.empty() || !id.valid()) {
      return kUnassigned;
    }
    const size_t mask = table_.size() - 1;
    for (size_t probe = hash(id.value) & mask;; probe = (probe + 1) & mask) {
      const uint32_t index = table_[probe];
      if (index == kUnassigned) {
        return kUnassigned;
      }
      if (nodes_[index] == id) {
        return index;
      }
    }
  }

  NodeId node_at(uint32_t index) const {
    assert(index < nodes_.size());
    return nodes_[index];
  }

  uint32_t count() const { return static_cast<uint32_t>(nodes_.size()); }

 private:
  // splitmix64 finalizer: well mixed over both the small sequential loyal
  // ids and the high-base minion ids.
  static size_t hash(uint32_t raw) { return static_cast<size_t>(sim::splitmix64_mix(raw)); }

  void place(NodeId id, uint32_t index) {
    const size_t mask = table_.size() - 1;
    size_t probe = hash(id.value) & mask;
    while (table_[probe] != kUnassigned) {
      probe = (probe + 1) & mask;
    }
    table_[probe] = index;
  }

  void rehash() {
    uint64_t capacity = table_.empty() ? 16 : static_cast<uint64_t>(table_.size()) * 2;
    while (capacity * 7 <= (static_cast<uint64_t>(nodes_.size()) + 1) * 10) {
      capacity *= 2;
    }
    table_.assign(capacity, kUnassigned);
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      place(nodes_[i], i);
    }
  }

  std::vector<NodeId> nodes_;     // index → id; ascending by construction
  std::vector<uint32_t> table_;   // open-addressed id → index, power-of-2
};

}  // namespace lockss::net

#endif  // LOCKSS_NET_NODE_SLOT_REGISTRY_HPP_
