#pragma once
/// \file event_queue.hpp
/// The simulator's event queues: a flat 4-ary min-heap over bit-packed keys,
/// and the integer-time bucket calendar.
///
/// The wormhole scheduler pops header-arrival events in (time, packet, hop)
/// order. Three properties make a specialized queue much faster than the
/// previous std::push_heap/std::pop_heap binary heap of structs:
///
///  * Event times are non-negative doubles, and the IEEE-754 bit pattern of a
///    non-negative double orders exactly like an unsigned integer — so the
///    time can be compared as a uint64_t (one integer compare instead of a
///    NaN-aware floating-point compare), and the (packet, hop) tie-break
///    packs into a second uint64_t. The full (time, packet, hop) order is a
///    two-word lexicographic integer compare. When every time is an exact
///    integer below 2^45, (time, packet) packs into one word (WordKey) and
///    the hop moves out of the key into a per-packet array.
///  * A 4-ary layout halves the tree depth of a binary heap, trading two
///    extra (cache-local) child compares per level for half the levels —
///    a consistent win at the heap sizes the simulator produces.
///  * Almost every pop of a non-final hop immediately pushes that packet's
///    next hop: replace_min() fuses the pair into a single sift-down, where
///    pop-then-push would sift down *and* up.
///
/// The key order is total for the simulator's workload — a packet has at
/// most one in-flight event, so (time, packet) never collides — which makes
/// the pop sequence independent of push order and of the heap arity. The
/// simulator's results therefore do not depend on packet construction order
/// or on this container's internals (regression-tested in
/// tests/sim/event_order_test.cpp).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace nocmap::sim::detail {

/// One queued header-arrival event, pre-packed for two-word comparison.
struct QueuedEvent {
  std::uint64_t time_key;    ///< Order-preserving bits of the arrival time.
  std::uint64_t packet_hop;  ///< packet << 32 | hop — the deterministic
                             ///< tie-break for equal timestamps.

  static QueuedEvent make(double time_ns, std::uint32_t packet,
                          std::uint32_t hop) {
    return QueuedEvent{time_bits(time_ns),
                       (static_cast<std::uint64_t>(packet) << 32) | hop};
  }

  /// The bit pattern of a non-negative double, which sorts like the double.
  static std::uint64_t time_bits(double time_ns) {
    std::uint64_t bits;
    std::memcpy(&bits, &time_ns, sizeof bits);
    return bits;
  }

  double time_ns() const {
    double t;
    std::memcpy(&t, &time_key, sizeof t);
    return t;
  }
  std::uint32_t packet() const {
    return static_cast<std::uint32_t>(packet_hop >> 32);
  }
  std::uint32_t hop() const { return static_cast<std::uint32_t>(packet_hop); }

  bool operator<(const QueuedEvent& o) const {
    if (time_key != o.time_key) return time_key < o.time_key;
    return packet_hop < o.packet_hop;
  }
};

/// One-word key of an integer-time event: time << 19 | packet. A packet has
/// at most one queued event, so (time, packet) is unique and the integer
/// order of the keys is the (time, packet, hop) order; the hop is stored
/// per packet beside the queue. Valid for times below 2^45 ns and packet
/// ids below 2^19, which the simulator checks at bind time.
struct WordKey {
  static constexpr unsigned kPacketBits = 19;
  static constexpr std::uint32_t kMaxPackets = 1u << kPacketBits;
  static constexpr std::uint64_t kMaxTime = 1ull << (64 - kPacketBits);

  static std::uint64_t make(double time_ns, std::uint32_t packet) {
    return (static_cast<std::uint64_t>(static_cast<std::int64_t>(time_ns))
            << kPacketBits) |
           packet;
  }
  static double time_ns(std::uint64_t key) {
    return static_cast<double>(static_cast<std::int64_t>(key >> kPacketBits));
  }
  static std::uint32_t packet(std::uint64_t key) {
    return static_cast<std::uint32_t>(key) & (kMaxPackets - 1);
  }
};

/// Min-heap of keys (QueuedEvent or a WordKey word) with 4 children per
/// node, stored flat.
template <class Key>
class EventHeap {
 public:
  void reserve(std::size_t n) { heap_.reserve(n); }
  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Key& min() const { return heap_.front(); }

  void push(Key e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i != 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!(e < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Key pop_min() {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }

  /// Pop the minimum and push `e` in one sift-down — the fast path for
  /// "this packet's header moves on to its next hop".
  Key replace_min(Key e) {
    const Key top = heap_.front();
    sift_down(e);
    return top;
  }

 private:
  /// Place `v` starting from the root, moving smaller children up.
  void sift_down(Key v) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t child = (i << 2) + 1;
      if (child >= n) break;
      const std::size_t best = min_child(child, child + 4 < n ? child + 4 : n);
      if (!(heap_[best] < v)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = v;
  }

  /// The index of the smallest key in [first, end). One-word keys keep the
  /// running minimum in a register and select it without a branch; a
  /// two-word compare branches on the time word, which rarely ties, so it
  /// tracks the index alone.
  std::size_t min_child(std::size_t first, std::size_t end) const {
    std::size_t best = first;
    if constexpr (std::is_integral_v<Key>) {
      Key best_key = heap_[first];
      for (std::size_t c = first + 1; c < end; ++c) {
        const Key key = heap_[c];
        const bool less = key < best_key;
        best = less ? c : best;
        best_key = less ? key : best_key;
      }
    } else {
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
    }
    return best;
  }

  std::vector<Key> heap_;
};

/// The general queue: two-word keys, any non-negative time.
using EventQueue = EventHeap<QueuedEvent>;

/// Monotone bucket calendar: the simulator's fast-path queue.
///
/// When every timing constant of the bound (CDCG, technology) pair is an
/// exact non-negative integer number of nanoseconds (true for the shipped
/// presets, whose clock period is 1 ns — and exactly checked, not assumed),
/// every event time is an exact integer too: all times are sums and
/// differences of integers, which double arithmetic reproduces exactly below
/// 2^53. The time can then serve directly as a bucket index:
///
///  * push is O(1): drop the event into bucket `time` and set its bit in the
///    occupancy bitmap;
///  * pop_min scans the bitmap forward from the last popped bucket (the
///    simulation is monotone — nothing is ever scheduled in the past), so
///    extraction is a find-first-set away instead of a heap sift;
///  * a packet has at most one in-flight event, so the per-bucket chains
///    need exactly one uint32 per packet, and an entry packs as
///    (hop << 19 | packet + 1) — bucket order by packet id IS the
///    deterministic (time, packet, hop) order of the heaps.
///
/// The simulator verifies the integrality preconditions (and a horizon
/// bound of 2^24 ns, since buckets are O(max time)) at bind time and falls
/// back to a heap otherwise; all queues pop in the identical total order,
/// so results are byte-identical either way.
class BucketQueue {
 public:
  /// Entry layout: bit 31 = "has a chain successor", bits 30..19 = hop,
  /// bits 18..0 = packet id + 1 (kPacketMask extracts it). The flag lets
  /// the common singleton-bucket pop skip the chain-link load entirely.
  static constexpr std::uint32_t kMaxPackets = (1u << 19) - 2;
  static constexpr std::uint32_t kMaxHops = 1u << 12;
  static constexpr std::uint32_t kPacketMask = (1u << 19) - 1;
  static constexpr std::uint32_t kChainFlag = 1u << 31;

  void init(std::size_t num_packets) { next_packed_.assign(num_packets, 0); }

  /// Prepare for a run. Buckets are normally left all-empty by a completed
  /// run (every pushed event is popped); after an abandoned run (exception)
  /// `dirty()` still holds and the bucket state is rebuilt from scratch.
  void begin_run() {
    if (dirty_) {
      std::fill(heads_.begin(), heads_.end(), 0u);
      std::fill(bitmap_.begin(), bitmap_.end(), 0ull);
    }
    word_ = 0;
    dirty_ = true;
  }
  void finish_run() { dirty_ = false; }
  /// End a run that stopped with `queued` events still in the calendar:
  /// popping them empties exactly the buckets they occupy, so the next run
  /// starts clean without clearing the whole calendar.
  void abandon_run(std::size_t queued) {
    std::size_t time = 0;
    std::uint32_t packet = 0;
    std::uint32_t hop = 0;
    for (; queued != 0; --queued) pop_min(time, packet, hop);
    dirty_ = false;
  }
  bool dirty() const { return dirty_; }

  void push(std::size_t bucket, std::uint32_t packet, std::uint32_t hop) {
    if (bucket >= heads_.size()) grow(bucket);
    std::uint32_t* slot = &heads_[bucket];
    std::uint32_t* prev = nullptr;
    // Within a bucket, chain in ascending packet id — the (packet, hop)
    // tie-break for equal timestamps (a packet queues at most one event,
    // so the packet id alone decides).
    while (*slot != 0 && (*slot & kPacketMask) - 1 < packet) {
      prev = slot;
      slot = &next_packed_[(*slot & kPacketMask) - 1];
    }
    next_packed_[packet] = *slot;  // Carries the successor's own flag.
    *slot = (*slot != 0 ? kChainFlag : 0u) | (hop << 19) | (packet + 1);
    if (prev) *prev |= kChainFlag;
    bitmap_[bucket >> 6] |= 1ull << (bucket & 63);
  }

  /// Extract the earliest event. Throws std::logic_error when no event is
  /// queued — the simulator only calls this while packets are outstanding,
  /// so an empty queue means the schedule stalled.
  void pop_min(std::size_t& time, std::uint32_t& packet, std::uint32_t& hop) {
    std::uint64_t word = bitmap_[word_];
    while (word == 0) {
      if (++word_ >= bitmap_.size()) {
        throw std::logic_error("simulate: not all packets were delivered");
      }
      word = bitmap_[word_];
    }
    const std::size_t bucket =
        (word_ << 6) + static_cast<std::size_t>(ctz(word));
    const std::uint32_t packed = heads_[bucket];
    const std::uint32_t pk = (packed & kPacketMask) - 1;
    if (packed & kChainFlag) {
      heads_[bucket] = next_packed_[pk];
    } else {
      heads_[bucket] = 0;
      bitmap_[word_] = word & ~(1ull << (bucket & 63));
    }
    time = bucket;
    packet = pk;
    hop = (packed >> 19) & (kMaxHops - 1);
  }

 private:
  static int ctz(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(v);
#else
    int n = 0;
    while ((v & 1) == 0) {
      v >>= 1;
      ++n;
    }
    return n;
#endif
  }

  void grow(std::size_t bucket) {
    std::size_t n = heads_.empty() ? 4096 : heads_.size();
    while (n <= bucket) n <<= 1;
    heads_.resize(n, 0);
    bitmap_.resize((n + 63) / 64, 0);
  }

  std::vector<std::uint32_t> heads_;        ///< Per-bucket chain head.
  std::vector<std::uint64_t> bitmap_;       ///< Bucket-occupancy bits.
  std::vector<std::uint32_t> next_packed_;  ///< Per-packet chain link.
  std::size_t word_ = 0;                    ///< Monotone scan cursor.
  bool dirty_ = false;
};

}  // namespace nocmap::sim::detail
