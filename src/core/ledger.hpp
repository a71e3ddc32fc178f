// Per-processor packet ledger: the d_{i,j} / b_{i,j} bookkeeping of §4.
//
// Every load packet carries the identity of the processor that generated
// it (its *load class*).  Processor i's ledger records
//   d[j] — real packets of class j currently held by i, and
//   b[j] — packets of class j that i has consumed on credit ("borrowed"),
//          i.e. virtual markers that keep class j's total invariant.
// The reduction of the n-processor model to n independent one-processor
// models (and hence Theorem 4) rests on two ledger invariants that this
// class maintains and can verify:
//   (L1) real load of i  ==  sum_j d[j]        (tracked incrementally)
//   (L2) sum_j b[j] <= C  and  b[j] in {0,1}   (the borrow cap)
//
// Storage is *sparse*: the ledger holds no O(n) arrays.  The source of
// truth is four parallel arrays in one slot block — the sorted active-
// class ids, the marked-class ids, and the d and b counts of each active
// class — so a ledger costs O(A) memory in the number A of active
// classes, not O(n); with every processor holding a handful of classes
// the whole n-processor simulator is O(n·A) bytes instead of the former
// O(n²) (which at n = 65536 would be ~64 GB of dense arrays).  Up to
// kInlineClasses slots live inside the Ledger object itself, so the
// common case — a few classes per processor — touches no heap memory
// and a processor table streams through contiguous storage; above that
// the block spills to one heap allocation (doubling, never shrinking)
// reached through the same data pointer.  Structural invariants of the
// compact form:
//   (S1) the active list is strictly ascending and every listed class
//        satisfies d > 0 || b > 0 — no zero entries are stored;
//   (S2) the d/b arrays have exactly one count per active entry and
//        hold non-negative counts.
// The derived views keep their PR-1 contracts:
//   (L3) active_classes() is exactly {j : d[j] > 0 || b[j] > 0}, sorted
//        ascending, and
//   (L4) marked_classes() is exactly {j : b[j] > 0}, sorted ascending
//        (at most C entries by L2).
// Ascending order matters: callers draw uniformly from these lists, and
// the original dense implementation enumerated candidates by scanning
// j = 0..n-1 — keeping the same order keeps the RNG-to-class mapping (and
// therefore the whole simulation) bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dlb {

class Ledger {
 public:
  /// Slots held inside the object before the storage spills to the heap.
  /// Serving-style traffic averages about three active classes per
  /// processor, so four keeps the common case allocation-free at 96
  /// bytes of slot storage.
  static constexpr std::uint32_t kInlineClasses = 4;

  /// Creates an empty ledger over `classes` load classes (= network size).
  /// O(1) memory regardless of `classes`; no heap allocation.
  explicit Ledger(std::uint32_t classes);
  ~Ledger();
  // Copies and moves re-point the data pointer at the destination's own
  // inline slots (or its own heap block); a moved-from ledger is empty.
  Ledger(const Ledger& other);
  Ledger(Ledger&& other) noexcept;
  Ledger& operator=(const Ledger& other);
  Ledger& operator=(Ledger&& other) noexcept;

  std::uint32_t classes() const { return classes_; }

  /// Count lookups by class: the memoized slot of the last mutating
  /// lookup, else a linear scan of a short active list or a binary search
  /// of a long one; classes without an entry are zero.
  std::int64_t d(std::uint32_t j) const {
    const std::uint32_t pos = slot(j);
    return pos < size_ ? d_data()[pos] : 0;
  }
  std::int64_t b(std::uint32_t j) const {
    const std::uint32_t pos = slot(j);
    return pos < size_ ? b_data()[pos] : 0;
  }

  /// Real load: sum_j d[j] (O(1), maintained incrementally).
  std::int64_t real_load() const { return real_; }
  /// Total borrow markers: sum_j b[j] (O(1)).
  std::int64_t borrowed_total() const { return borrowed_; }
  /// Virtual load: real + borrowed — the quantity the §3/§4 analysis
  /// bounds.
  std::int64_t virtual_load() const { return real_ + borrowed_; }

  /// Classes with d[j] > 0 || b[j] > 0, ascending (L3).  The view is
  /// invalidated by any mutating call (and by copying or moving the
  /// ledger).
  std::span<const std::uint32_t> active_classes() const {
    return {cls_data(), size_};
  }

  /// Per-class counts parallel to active_classes(): active_d()[i] is
  /// d[active_classes()[i]], active_b()[i] is b[active_classes()[i]].
  /// Lets bulk readers (the balance gather) walk the compact storage
  /// without per-class lookups.  Invalidated like active_classes().
  std::span<const std::int64_t> active_d() const { return {d_data(), size_}; }
  std::span<const std::int64_t> active_b() const { return {b_data(), size_}; }

  /// Classes with b[j] > 0, ascending (L4); at most C entries.
  /// Invalidated like active_classes().
  std::span<const std::uint32_t> marked_classes() const {
    return {marked_data(), marked_size_};
  }

  /// Adds `count` real packets of class j.
  void add_real(std::uint32_t j, std::int64_t count);
  /// Removes `count` real packets of class j (must be available).
  void remove_real(std::uint32_t j, std::int64_t count);

  /// Converts one real class-j packet into a borrow marker: the packet is
  /// consumed, class j's virtual total is preserved.  Requires d[j] > 0
  /// and b[j] == 0.
  void borrow(std::uint32_t j);

  /// Clears one borrow marker of class j (debt settled).
  void clear_marker(std::uint32_t j);

  /// Converts one borrow marker of class j back into a real packet
  /// (the appendix's generate path: a newly generated packet is booked
  /// against an outstanding debt).  Requires b[j] > 0.
  void repay_with_generation(std::uint32_t j);

  /// Sets d[j] to an absolute value (balancing write-back, checkpoint
  /// compat).  O(A) worst case (entry insert/erase); totals and the
  /// marked list are maintained incrementally.
  void set_d(std::uint32_t j, std::int64_t value);

  /// Sets b[j] to an absolute value in {0, 1}.
  void set_b(std::uint32_t j, std::int64_t value);

  /// Batch write-back for a balancing operation: assigns
  /// d[cls[c]] = d_vals[c] and b[cls[c]] = b_vals[c] for c in [0, k).
  /// `cls` must be sorted ascending with no duplicates; d values
  /// non-negative, b values in {0, 1}.  One merge pass over the compact
  /// storage and the k dealt columns — O(A + k) total, touching only
  /// cache-resident slots (no scattered dense cells exist anymore).
  /// Also the sparse bulk-load path: on an empty ledger it installs the
  /// nonzero entries directly (checkpoint restore).
  void apply_dealt(const std::uint32_t* cls, std::size_t k,
                   const std::int64_t* d_vals, const std::int64_t* b_vals);

  /// Write-back of one participant's row of a balancing deal: assigns
  /// d[cls[c]] = d_vals[c * stride] and b[cls[c]] = b_vals[c * stride]
  /// for c in [0, k) — the strided read takes the row straight out of the
  /// deal's column-major scratch.  `cls` (sorted ascending, no
  /// duplicates) must cover every currently active class: the deal spans
  /// the participants' class union, a superset of each one's active
  /// list, which is verified here.  The post state then depends on the
  /// dealt values alone: totals are plain sums and the slots rebuild in
  /// place with no merge against the old storage.  Every argument is
  /// validated before the first write, so a rejected call leaves the
  /// ledger untouched.  O(A + k) — this is the hottest write path in the
  /// simulator.
  void replace_dealt(const std::uint32_t* cls, std::size_t k,
                     const std::int64_t* d_vals, const std::int64_t* b_vals,
                     std::size_t stride);

  /// Wholesale replacement from dense vectors (tests, v1 checkpoints).
  /// Vectors must have size classes(); entries must be non-negative.
  /// O(n) input scan; only the nonzero entries are stored.
  void replace(std::vector<std::int64_t> d_new,
               std::vector<std::int64_t> b_new);

  /// Capacity floor: pre-sizes the compact storage for `k` active-class
  /// entries (clamped to classes()), so later writes up to that
  /// occupancy never reallocate — the zero-allocation steady-state knob
  /// (BalancerConfig::reserve_classes).  Never shrinks.
  void reserve_active(std::uint32_t k);

  /// Smallest class index with b[j] > 0, or classes() if none.  O(1).
  std::uint32_t first_marked_class() const;

  /// Verifies L1-L4 and the compact-storage invariants S1/S2; throws
  /// contract_error on failure.  O(A) — independent of classes().
  void check(std::uint32_t borrow_cap) const;

  /// Dense materializations for tests and tools; O(n) each, allocates.
  std::vector<std::int64_t> dense_d() const;
  std::vector<std::int64_t> dense_b() const;

  /// Whole per-ledger footprint: the object itself (header plus inline
  /// slots) and the spilled heap block, if any — the bytes-per-processor
  /// metric BENCH_core.json records.
  std::size_t memory_bytes() const;

 private:
  // One slot = class id + marked id (u32 each) + d + b (i64 each).  The
  // block holds `capacity_` slots as four arrays: ids, marked ids, d, b.
  static constexpr std::size_t kSlotBytes =
      2 * sizeof(std::uint32_t) + 2 * sizeof(std::int64_t);
  // Linear scans beat binary search on short, cache-resident lists.
  static constexpr std::uint32_t kLinearScanMax = 16;

  std::uint32_t* cls_data() const {
    return reinterpret_cast<std::uint32_t*>(data_);
  }
  std::uint32_t* marked_data() const { return cls_data() + capacity_; }
  std::int64_t* d_data() const {
    return reinterpret_cast<std::int64_t*>(
        data_ + 2 * sizeof(std::uint32_t) * capacity_);
  }
  std::int64_t* b_data() const { return d_data() + capacity_; }
  bool spilled() const { return data_ != inline_; }

  // Position of the first active class >= j.
  std::uint32_t lower_slot(std::uint32_t j) const {
    const std::uint32_t* cls = cls_data();
    if (size_ <= kLinearScanMax) {
      std::uint32_t pos = 0;
      while (pos < size_ && cls[pos] < j) ++pos;
      return pos;
    }
    return static_cast<std::uint32_t>(std::lower_bound(cls, cls + size_, j) -
                                      cls);
  }
  // Slot of class j, or size_ when j has no entry.  The const overload is
  // write-free (it consults hint_ but never updates it), so concurrent
  // const lookups on one shared ledger are race-free; the non-const
  // overload additionally memoizes the hit in hint_.
  std::uint32_t slot(std::uint32_t j) const {
    const std::uint32_t* cls = cls_data();
    if (hint_ < size_ && cls[hint_] == j) return hint_;
    const std::uint32_t pos = lower_slot(j);
    return pos < size_ && cls[pos] == j ? pos : size_;
  }
  std::uint32_t slot(std::uint32_t j) {
    const std::uint32_t pos = std::as_const(*this).slot(j);
    if (pos < size_) hint_ = pos;
    return pos;
  }

  // Grows the block to at least `slots` slots (doubling), keeping the
  // contents.  Never shrinks.  The capacity test is inline: the hot
  // write paths call this on every write and almost never grow.
  void reserve_slots(std::uint32_t slots) {
    if (slots > capacity_) grow_slots(slots);
  }
  void grow_slots(std::uint32_t slots);
  // Makes this ledger an empty inline one (no heap block).
  void reset_inline();
  // Copies `other`'s entries and totals into this ledger's block, which
  // must already hold other.size_ slots.
  void copy_entries(const Ledger& other);
  void insert_entry(std::uint32_t pos, std::uint32_t j, std::int64_t d_val,
                    std::int64_t b_val);
  void erase_entry(std::uint32_t pos);
  // Drops the entry at `pos` if both counts reached zero (S1).
  void drop_if_zero(std::uint32_t pos);
  void insert_marked(std::uint32_t j);
  void erase_marked(std::uint32_t j);
  // Rebuilds the marked list from the b counts (bulk write-backs).
  void rebuild_marked();

  // Points at inline_ or at the spilled heap block.
  std::byte* data_;
  std::int64_t real_ = 0;
  std::int64_t borrowed_ = 0;
  std::uint32_t classes_;
  std::uint32_t size_ = 0;         // active entries
  std::uint32_t marked_size_ = 0;  // marked entries (<= size_)
  std::uint32_t capacity_ = kInlineClasses;
  // Memo of the last mutating slot() hit.  The event loop queries the
  // same class many times in a row (generate/consume/trigger checks on
  // the own class), so on a long active list this turns most lookups
  // into one comparison.  Safe against staleness: the cached slot is only
  // used after re-verifying the class at it.
  std::uint32_t hint_ = 0;
  alignas(std::int64_t) std::byte inline_[kInlineClasses * kSlotBytes];
};

}  // namespace dlb
