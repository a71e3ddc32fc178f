#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/system.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

TEST(Ledger, StartsEmpty) {
  Ledger ledger(4);
  EXPECT_EQ(ledger.classes(), 4u);
  EXPECT_EQ(ledger.real_load(), 0);
  EXPECT_EQ(ledger.borrowed_total(), 0);
  EXPECT_EQ(ledger.virtual_load(), 0);
  ledger.check(4);
}

TEST(Ledger, AddRemoveRealKeepsSums) {
  Ledger ledger(3);
  ledger.add_real(0, 5);
  ledger.add_real(2, 3);
  EXPECT_EQ(ledger.d(0), 5);
  EXPECT_EQ(ledger.d(2), 3);
  EXPECT_EQ(ledger.real_load(), 8);
  ledger.remove_real(0, 2);
  EXPECT_EQ(ledger.d(0), 3);
  EXPECT_EQ(ledger.real_load(), 6);
  ledger.check(0);
}

TEST(Ledger, RemoveMoreThanHeldThrows) {
  Ledger ledger(2);
  ledger.add_real(0, 1);
  EXPECT_THROW(ledger.remove_real(0, 2), contract_error);
  EXPECT_THROW(ledger.remove_real(1, 1), contract_error);
}

TEST(Ledger, BorrowConvertsRealIntoMarker) {
  Ledger ledger(3);
  ledger.add_real(1, 2);
  ledger.borrow(1);
  EXPECT_EQ(ledger.d(1), 1);
  EXPECT_EQ(ledger.b(1), 1);
  EXPECT_EQ(ledger.real_load(), 1);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  // Virtual load is preserved by borrowing.
  EXPECT_EQ(ledger.virtual_load(), 2);
  ledger.check(1);
}

TEST(Ledger, BorrowRequiresRealPacketAndNoExistingMarker) {
  Ledger ledger(2);
  EXPECT_THROW(ledger.borrow(0), contract_error);  // no packet
  ledger.add_real(0, 2);
  ledger.borrow(0);
  EXPECT_THROW(ledger.borrow(0), contract_error);  // marker already set
}

TEST(Ledger, ClearMarker) {
  Ledger ledger(2);
  ledger.add_real(1, 1);
  ledger.borrow(1);
  ledger.clear_marker(1);
  EXPECT_EQ(ledger.b(1), 0);
  EXPECT_EQ(ledger.borrowed_total(), 0);
  EXPECT_THROW(ledger.clear_marker(1), contract_error);
}

TEST(Ledger, RepayWithGeneration) {
  Ledger ledger(2);
  ledger.add_real(1, 1);
  ledger.borrow(1);
  ledger.repay_with_generation(1);
  EXPECT_EQ(ledger.b(1), 0);
  EXPECT_EQ(ledger.d(1), 1);
  EXPECT_EQ(ledger.real_load(), 1);
  EXPECT_THROW(ledger.repay_with_generation(1), contract_error);
}

TEST(Ledger, ReplaceRecomputesSums) {
  Ledger ledger(3);
  ledger.replace({1, 2, 3}, {0, 1, 0});
  EXPECT_EQ(ledger.real_load(), 6);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  EXPECT_EQ(ledger.virtual_load(), 7);
  ledger.check(1);
}

TEST(Ledger, ReplaceValidatesShapeAndSign) {
  Ledger ledger(2);
  EXPECT_THROW(ledger.replace({1}, {0, 0}), contract_error);
  EXPECT_THROW(ledger.replace({-1, 0}, {0, 0}), contract_error);
  EXPECT_THROW(ledger.replace({0, 0}, {0, -2}), contract_error);
}

// replace_dealt reads one row of a balancing deal's column-major matrix
// with the row count as stride.  The tests lay the row out that way, with
// invalid counts in every other row, so a wrong stride trips a contract
// check instead of reading plausible values.
struct DealtRow {
  std::vector<std::int64_t> d;
  std::vector<std::int64_t> b;
  std::size_t row;
  std::size_t rows;

  DealtRow(const std::vector<std::int64_t>& d_vals,
           const std::vector<std::int64_t>& b_vals, std::size_t row_index,
           std::size_t row_count)
      : d(d_vals.size() * row_count, -7),
        b(b_vals.size() * row_count, 9),
        row(row_index),
        rows(row_count) {
    for (std::size_t c = 0; c < d_vals.size(); ++c) {
      d[c * rows + row] = d_vals[c];
      b[c * rows + row] = b_vals[c];
    }
  }
};

void replace_dealt(Ledger& ledger, const std::vector<std::uint32_t>& cls,
                   const std::vector<std::int64_t>& d_vals,
                   const std::vector<std::int64_t>& b_vals,
                   std::size_t row = 1, std::size_t rows = 3) {
  const DealtRow dealt(d_vals, b_vals, row, rows);
  ledger.replace_dealt(cls.data(), cls.size(), dealt.d.data() + row,
                       dealt.b.data() + row, rows);
}

TEST(Ledger, ReplaceDealtRequiresSupersetOfActive) {
  Ledger ledger(6);
  ledger.add_real(2, 3);
  ledger.add_real(4, 1);
  // Covering {2, 4} works and fully replaces the state (class 2 keeps
  // only a marker, class 1 is newly inserted).
  replace_dealt(ledger, {1, 2, 4}, {5, 0, 2}, {0, 1, 0});
  EXPECT_EQ(ledger.d(1), 5);
  EXPECT_EQ(ledger.d(2), 0);
  EXPECT_EQ(ledger.b(2), 1);
  EXPECT_EQ(ledger.d(4), 2);
  EXPECT_EQ(ledger.real_load(), 7);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  ledger.check(1);
  // Omitting an active class (2 still holds a marker) breaks the
  // superset precondition; the contract check fires before any mutation.
  EXPECT_THROW(replace_dealt(ledger, {1, 4}, {1, 1}, {0, 0}), contract_error);
  EXPECT_EQ(ledger.real_load(), 7);  // untouched by the rejected call
  EXPECT_EQ(ledger.borrowed_total(), 1);
  ledger.check(1);
}

TEST(Ledger, ReplaceDealtRejectsInvalidRowsBeforeAnyWrite) {
  Ledger ledger(6);
  ledger.add_real(2, 3);
  ledger.add_real(4, 1);
  const std::vector<std::int64_t> want_d = ledger.dense_d();
  const auto expect_untouched = [&] {
    EXPECT_EQ(ledger.dense_d(), want_d);
    EXPECT_EQ(ledger.borrowed_total(), 0);
    ledger.check(1);
  };
  // Classes out of order, repeated, or out of range.
  EXPECT_THROW(replace_dealt(ledger, {4, 2}, {1, 1}, {0, 0}), contract_error);
  expect_untouched();
  EXPECT_THROW(replace_dealt(ledger, {2, 2, 4}, {1, 1, 1}, {0, 0, 0}),
               contract_error);
  expect_untouched();
  EXPECT_THROW(replace_dealt(ledger, {2, 4, 6}, {1, 1, 1}, {0, 0, 0}),
               contract_error);
  expect_untouched();
  // A negative real count, and a marker count outside {0, 1}.
  EXPECT_THROW(replace_dealt(ledger, {2, 4}, {1, -1}, {0, 0}), contract_error);
  expect_untouched();
  EXPECT_THROW(replace_dealt(ledger, {2, 4}, {1, 1}, {2, 0}), contract_error);
  expect_untouched();
  // A zero stride would read one cell over and over.
  const std::uint32_t cls[] = {2, 4};
  const std::int64_t vals[] = {1, 1};
  EXPECT_THROW(ledger.replace_dealt(cls, 2, vals, vals, 0), contract_error);
  expect_untouched();
}

// The write-back rebuilds the slots in place, so it must grow an inline
// ledger into a heap block when the row has more live classes than fit,
// and keep a spilled ledger consistent when the row shrinks it back
// below the inline capacity (the block is kept: storage never shrinks).
TEST(Ledger, ReplaceDealtCrossesTheInlineSpillBoundary) {
  constexpr std::uint32_t kInline = Ledger::kInlineClasses;
  Ledger ledger(32);
  ledger.add_real(3, 2);
  ASSERT_EQ(ledger.memory_bytes(), sizeof(Ledger));

  // Inline -> spilled: every class 0..kInline+1 becomes live.
  std::vector<std::uint32_t> wide;
  std::vector<std::int64_t> wide_d;
  std::vector<std::int64_t> wide_b;
  for (std::uint32_t j = 0; j < kInline + 2; ++j) {
    wide.push_back(j);
    wide_d.push_back(static_cast<std::int64_t>(j) + 1);
    wide_b.push_back(static_cast<std::int64_t>(j % 2));
  }
  replace_dealt(ledger, wide, wide_d, wide_b, 0, 4);
  ledger.check(kInline);
  EXPECT_GT(ledger.memory_bytes(), sizeof(Ledger));
  ASSERT_EQ(ledger.active_classes().size(), kInline + 2);
  for (std::uint32_t j = 0; j < kInline + 2; ++j) {
    EXPECT_EQ(ledger.d(j), wide_d[j]);
    EXPECT_EQ(ledger.b(j), wide_b[j]);
  }
  const std::span<const std::uint32_t> marked = ledger.marked_classes();
  EXPECT_EQ(std::vector<std::uint32_t>(marked.begin(), marked.end()),
            (std::vector<std::uint32_t>{1, 3, 5}));

  // Spilled -> below the inline capacity: the row zeroes all but two of
  // the covered classes and adds one class that was not active.
  std::vector<std::uint32_t> cls = wide;
  cls.push_back(20);
  std::vector<std::int64_t> d_vals(cls.size(), 0);
  std::vector<std::int64_t> b_vals(cls.size(), 0);
  d_vals[2] = 4;
  b_vals.back() = 1;
  replace_dealt(ledger, cls, d_vals, b_vals, 3, 4);
  ledger.check(kInline);
  const std::span<const std::uint32_t> active = ledger.active_classes();
  EXPECT_EQ(std::vector<std::uint32_t>(active.begin(), active.end()),
            (std::vector<std::uint32_t>{2, 20}));
  EXPECT_EQ(ledger.first_marked_class(), 20u);
  EXPECT_EQ(ledger.real_load(), 4);
  EXPECT_EQ(ledger.borrowed_total(), 1);

  // And back up past the boundary again from the kept block.
  replace_dealt(ledger, cls, std::vector<std::int64_t>(cls.size(), 1),
                std::vector<std::int64_t>(cls.size(), 0), 2, 4);
  ledger.check(kInline);
  EXPECT_EQ(ledger.active_classes().size(), cls.size());
  EXPECT_EQ(ledger.real_load(), static_cast<std::int64_t>(cls.size()));
  EXPECT_EQ(ledger.borrowed_total(), 0);
}

TEST(Ledger, FirstMarkedClass) {
  Ledger ledger(4);
  EXPECT_EQ(ledger.first_marked_class(), 4u);
  ledger.add_real(2, 1);
  ledger.borrow(2);
  EXPECT_EQ(ledger.first_marked_class(), 2u);
}

TEST(Ledger, CheckDetectsCapViolation) {
  Ledger ledger(3);
  ledger.replace({0, 0, 0}, {1, 1, 1});
  EXPECT_THROW(ledger.check(2), contract_error);
  ledger.check(3);
}

TEST(Ledger, OutOfRangeClassThrows) {
  Ledger ledger(2);
  EXPECT_THROW(ledger.add_real(2, 1), contract_error);
  EXPECT_THROW(ledger.borrow(5), contract_error);
}

// ---- Sparse-storage property test --------------------------------------
//
// The compact (class, d, b) storage is now the source of truth, so the
// test maintains its own trivial dense reference model (two plain O(n)
// vectors updated alongside every mutation) and checks the full ledger
// surface against it after every step:
//   - d(j)/b(j) point lookups, real/borrowed/virtual totals (L1, L2);
//   - active_classes()/marked_classes() order and content (L3, L4);
//   - the parallel count vectors active_d()/active_b() and the dense
//     materializations dense_d()/dense_b();
//   - Ledger::check, which verifies the storage invariants S1/S2 (no
//     zero entries, strictly ascending keys, parallel shapes).
// Exercises every mutator: add/remove/borrow/clear (settle)/repay/
// set_d/set_b/replace, the general merge write-back apply_dealt with
// random ascending class subsets, and the hot-path rebuild write-back
// replace_dealt with random supersets of the active list, read as one
// row of a column-major deal matrix.

struct DenseReference {
  std::vector<std::int64_t> d;
  std::vector<std::int64_t> b;

  explicit DenseReference(std::uint32_t classes) : d(classes, 0), b(classes, 0) {}

  std::int64_t borrowed() const {
    std::int64_t total = 0;
    for (std::int64_t v : b) total += v;
    return total;
  }
};

template <class T>
std::vector<T> to_vector(std::span<const T> view) {
  return std::vector<T>(view.begin(), view.end());
}

void expect_matches_reference(const Ledger& ledger,
                              const DenseReference& ref,
                              std::uint32_t cap) {
  ledger.check(cap);  // L1-L4 plus the storage invariants S1/S2
  const auto classes = static_cast<std::uint32_t>(ref.d.size());
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::vector<std::uint32_t> want_active;
  std::vector<std::uint32_t> want_marked;
  for (std::uint32_t j = 0; j < classes; ++j) {
    ASSERT_EQ(ledger.d(j), ref.d[j]) << "class " << j;
    ASSERT_EQ(ledger.b(j), ref.b[j]) << "class " << j;
    real += ref.d[j];
    borrowed += ref.b[j];
    if (ref.d[j] > 0 || ref.b[j] > 0) want_active.push_back(j);
    if (ref.b[j] > 0) want_marked.push_back(j);
  }
  EXPECT_EQ(ledger.real_load(), real);
  EXPECT_EQ(ledger.borrowed_total(), borrowed);
  EXPECT_EQ(ledger.virtual_load(), real + borrowed);
  EXPECT_EQ(to_vector(ledger.active_classes()), want_active);
  EXPECT_EQ(to_vector(ledger.marked_classes()), want_marked);
  const std::span<const std::uint32_t> active = ledger.active_classes();
  const std::span<const std::int64_t> d_counts = ledger.active_d();
  const std::span<const std::int64_t> b_counts = ledger.active_b();
  ASSERT_EQ(d_counts.size(), active.size());
  ASSERT_EQ(b_counts.size(), active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(d_counts[i], ref.d[active[i]]);
    EXPECT_EQ(b_counts[i], ref.b[active[i]]);
  }
  EXPECT_EQ(ledger.dense_d(), ref.d);
  EXPECT_EQ(ledger.dense_b(), ref.b);
}

TEST(LedgerProperty, SparseStorageTracksDenseReferenceUnderRandomOps) {
  constexpr std::uint32_t kClasses = 24;
  constexpr std::uint32_t kCap = 6;
  Rng rng(0x1eadbeef);
  Ledger ledger(kClasses);
  DenseReference ref(kClasses);
  for (int op = 0; op < 4000; ++op) {
    const auto j = static_cast<std::uint32_t>(rng.below(kClasses));
    switch (rng.below(10)) {
      case 0: {
        const auto count = 1 + static_cast<std::int64_t>(rng.below(3));
        ledger.add_real(j, count);
        ref.d[j] += count;
        break;
      }
      case 1:
        if (ledger.d(j) > 0) {
          const auto count =
              1 + static_cast<std::int64_t>(
                      rng.below(static_cast<std::uint64_t>(ledger.d(j))));
          ledger.remove_real(j, count);
          ref.d[j] -= count;
        }
        break;
      case 2:
        if (ledger.d(j) > 0 && ledger.b(j) == 0 &&
            ledger.borrowed_total() < kCap) {
          ledger.borrow(j);
          ref.d[j] -= 1;
          ref.b[j] += 1;
        }
        break;
      case 3:
        if (ledger.b(j) > 0) {
          ledger.clear_marker(j);
          ref.b[j] -= 1;
        }
        break;
      case 4:
        if (ledger.b(j) > 0) {
          ledger.repay_with_generation(j);
          ref.b[j] -= 1;
          ref.d[j] += 1;
        }
        break;
      case 5: {
        const auto v = static_cast<std::int64_t>(rng.below(4));
        ledger.set_d(j, v);
        ref.d[j] = v;
        break;
      }
      case 6: {
        const std::int64_t v =
            ledger.b(j) == 0 && ledger.borrowed_total() < kCap ? 1 : 0;
        ledger.set_b(j, v);
        ref.b[j] = v;
        break;
      }
      case 7: {
        // Full replace with a fresh random state (test/restore path).
        DenseReference next(kClasses);
        std::int64_t markers = 0;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          next.d[c] = static_cast<std::int64_t>(rng.below(3));
          if (markers < kCap && rng.below(4) == 0) {
            next.b[c] = 1;
            ++markers;
          }
        }
        ledger.replace(next.d, next.b);
        ref = next;
        break;
      }
      case 8: {
        // Balancing write-back over a random ascending class subset,
        // including zero assignments (entry drops) and absent classes
        // (entry inserts) — the sparse merge path's full case space.
        std::vector<std::uint32_t> cls;
        std::vector<std::int64_t> d_vals;
        std::vector<std::int64_t> b_vals;
        std::int64_t budget = kCap - ref.borrowed();
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          if (rng.below(3) != 0) continue;
          cls.push_back(c);
          d_vals.push_back(static_cast<std::int64_t>(rng.below(4)));
          budget += ref.b[c];  // c's old marker is overwritten
          if (budget > 0 && rng.below(4) == 0) {
            b_vals.push_back(1);
            --budget;
          } else {
            b_vals.push_back(0);
          }
        }
        ledger.apply_dealt(cls.data(), cls.size(), d_vals.data(),
                           b_vals.data());
        for (std::size_t i = 0; i < cls.size(); ++i) {
          ref.d[cls[i]] = d_vals[i];
          ref.b[cls[i]] = b_vals[i];
        }
        break;
      }
      case 9: {
        // Hot-path write-back: cls must cover every active class.  Build
        // it as the current active list plus random extra classes, with
        // fresh random values — zeros included, so covered entries drop
        // and extra classes may insert.  The old state is irrelevant to
        // the result, so the reference resets wholesale.
        std::vector<std::uint32_t> cls;
        std::vector<std::int64_t> d_vals;
        std::vector<std::int64_t> b_vals;
        const std::span<const std::uint32_t> active = ledger.active_classes();
        std::size_t ai = 0;
        std::int64_t budget = kCap;  // every old marker is overwritten
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          const bool required = ai < active.size() && active[ai] == c;
          if (required) ++ai;
          if (!required && rng.below(3) != 0) continue;
          cls.push_back(c);
          d_vals.push_back(static_cast<std::int64_t>(rng.below(4)));
          if (budget > 0 && rng.below(4) == 0) {
            b_vals.push_back(1);
            --budget;
          } else {
            b_vals.push_back(0);
          }
        }
        // Row position and count vary with op, leaving the rng stream
        // (and so the op sequence) as it was.
        const auto rows = 1 + static_cast<std::size_t>(op) % 5;
        replace_dealt(ledger, cls, d_vals, b_vals,
                      static_cast<std::size_t>(op) / 5 % rows, rows);
        ref = DenseReference(kClasses);
        for (std::size_t i = 0; i < cls.size(); ++i) {
          ref.d[cls[i]] = d_vals[i];
          ref.b[cls[i]] = b_vals[i];
        }
        break;
      }
    }
    expect_matches_reference(ledger, ref, kCap);
  }
}

TEST(LedgerProperty, FirstMarkedClassMatchesMarkedListHead) {
  Ledger ledger(8);
  EXPECT_EQ(ledger.first_marked_class(), 8u);
  ledger.add_real(5, 2);
  ledger.add_real(2, 1);
  ledger.borrow(5);
  EXPECT_EQ(ledger.first_marked_class(), 5u);
  ledger.borrow(2);
  EXPECT_EQ(ledger.first_marked_class(), 2u);
  ledger.clear_marker(2);
  EXPECT_EQ(ledger.first_marked_class(), 5u);
  ledger.clear_marker(5);
  EXPECT_EQ(ledger.first_marked_class(), 8u);
}

// ---- Inline/spill boundary --------------------------------------------
//
// A ledger keeps up to Ledger::kInlineClasses entries inside the object
// and spills to one heap block above that.  This drives the active count
// back and forth across the boundary through every mutator, copies and
// moves the ledger in both states along the way (each copy/move must
// re-point at its own storage), and checks everything against the dense
// reference after every step.

TEST(LedgerProperty, InlineSpillBoundaryTracksDenseReference) {
  constexpr std::uint32_t kClasses = 12;
  constexpr std::uint32_t kCap = 4;
  constexpr std::size_t kInline = Ledger::kInlineClasses;
  Rng rng(0xb0a4d);
  Ledger ledger(kClasses);
  DenseReference ref(kClasses);
  int spills = 0;     // inline -> heap-sized occupancy crossings
  int unspills = 0;   // back below the inline capacity
  for (int op = 0; op < 6000; ++op) {
    const std::size_t before = ledger.active_classes().size();
    // Lean towards growth below the boundary and shrinkage above it, so
    // the occupancy keeps crossing it.
    const bool grow = rng.below(10) < (before <= kInline ? 7u : 3u);
    const auto j = static_cast<std::uint32_t>(rng.below(kClasses));
    switch (rng.below(4) + (grow ? 0 : 4)) {
      case 0: {
        const auto count = 1 + static_cast<std::int64_t>(rng.below(3));
        ledger.add_real(j, count);
        ref.d[j] += count;
        break;
      }
      case 1:  // borrow keeps the entry, repay converts it back
        if (ledger.d(j) > 0 && ledger.b(j) == 0 &&
            ledger.borrowed_total() < kCap) {
          ledger.borrow(j);
          ref.d[j] -= 1;
          ref.b[j] += 1;
        } else if (ledger.b(j) > 0) {
          ledger.repay_with_generation(j);
          ref.b[j] -= 1;
          ref.d[j] += 1;
        }
        break;
      case 2: {
        // General merge write-back over a random ascending subset,
        // mostly nonzero so it inserts.
        std::vector<std::uint32_t> cls;
        std::vector<std::int64_t> d_vals;
        std::vector<std::int64_t> b_vals;
        std::int64_t budget = kCap - ref.borrowed();
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          if (rng.below(3) != 0) continue;
          cls.push_back(c);
          d_vals.push_back(static_cast<std::int64_t>(rng.below(5)));
          budget += ref.b[c];
          const bool mark = budget > 0 && rng.below(4) == 0;
          b_vals.push_back(mark ? 1 : 0);
          budget -= mark ? 1 : 0;
        }
        ledger.apply_dealt(cls.data(), cls.size(), d_vals.data(),
                           b_vals.data());
        for (std::size_t i = 0; i < cls.size(); ++i) {
          ref.d[cls[i]] = d_vals[i];
          ref.b[cls[i]] = b_vals[i];
        }
        break;
      }
      case 3: {
        // Dense replace with a fresh state of random occupancy.
        DenseReference next(kClasses);
        const auto density = 1 + rng.below(3);
        std::int64_t markers = 0;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          if (rng.below(4) < density)
            next.d[c] = 1 + static_cast<std::int64_t>(rng.below(3));
          if (markers < kCap && rng.below(6) == 0) {
            next.b[c] = 1;
            ++markers;
          }
        }
        ledger.replace(next.d, next.b);
        ref = next;
        break;
      }
      case 4:
        if (ledger.d(j) > 0) {  // drop all of class j's real packets
          const std::int64_t held = ledger.d(j);
          ledger.remove_real(j, held);
          ref.d[j] = 0;
        }
        break;
      case 5:
        if (ledger.b(j) > 0) {
          ledger.clear_marker(j);
          ref.b[j] -= 1;
        }
        break;
      case 6: {
        // Hot-path write-back over the active list plus extras, zeroing
        // most columns so entries drop.
        std::vector<std::uint32_t> cls;
        std::vector<std::int64_t> d_vals;
        std::vector<std::int64_t> b_vals;
        const std::span<const std::uint32_t> active = ledger.active_classes();
        std::size_t ai = 0;
        std::int64_t budget = kCap;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          const bool required = ai < active.size() && active[ai] == c;
          if (required) ++ai;
          if (!required && rng.below(4) != 0) continue;
          cls.push_back(c);
          const bool live = rng.below(3) == 0;
          d_vals.push_back(live ? 1 + static_cast<std::int64_t>(rng.below(3))
                                : 0);
          const bool mark = budget > 0 && rng.below(8) == 0;
          b_vals.push_back(mark ? 1 : 0);
          budget -= mark ? 1 : 0;
        }
        // Row position and count vary with op, leaving the rng stream
        // (and so the op sequence) as it was.
        const auto rows = 1 + static_cast<std::size_t>(op) % 5;
        replace_dealt(ledger, cls, d_vals, b_vals,
                      static_cast<std::size_t>(op) / 5 % rows, rows);
        ref = DenseReference(kClasses);
        for (std::size_t i = 0; i < cls.size(); ++i) {
          ref.d[cls[i]] = d_vals[i];
          ref.b[cls[i]] = b_vals[i];
        }
        break;
      }
      case 7: {
        // A wholesale shrink through the checkpoint-style bulk load: an
        // empty ledger takes a small entry set via apply_dealt.
        Ledger fresh(kClasses);
        const std::uint32_t cls[] = {j};
        const std::int64_t d_vals[] = {1};
        const std::int64_t b_vals[] = {0};
        fresh.apply_dealt(cls, 1, d_vals, b_vals);
        ledger = fresh;
        ref = DenseReference(kClasses);
        ref.d[j] = 1;
        break;
      }
    }
    const std::size_t after = ledger.active_classes().size();
    spills += before <= kInline && after > kInline ? 1 : 0;
    unspills += before > kInline && after <= kInline ? 1 : 0;
    expect_matches_reference(ledger, ref, kCap);
    if (::testing::Test::HasFatalFailure()) return;
    switch (op % 4) {
      case 0: {  // copy, then mutate the copy: storage must not be shared
        Ledger copy(ledger);
        expect_matches_reference(copy, ref, kCap);
        copy.add_real(j, 1);
        EXPECT_EQ(ledger.d(j), ref.d[j]);
        break;
      }
      case 1: {  // move out and back in
        Ledger moved(std::move(ledger));
        expect_matches_reference(moved, ref, kCap);
        EXPECT_EQ(ledger.active_classes().size(), 0u);
        ledger.check(kCap);
        ledger = std::move(moved);
        break;
      }
      case 2: {  // copy-assign over a ledger in the other storage state
        Ledger target(kClasses);
        for (std::uint32_t c = 0; c < kClasses; c += (after > kInline ? 4 : 1))
          target.add_real(c, 1);
        target = ledger;
        expect_matches_reference(target, ref, kCap);
        ledger = std::move(target);
        break;
      }
      default:
        break;
    }
    expect_matches_reference(ledger, ref, kCap);
  }
  EXPECT_GT(spills, 50);
  EXPECT_GT(unspills, 50);
}

TEST(Ledger, MemoryBytesCountsObjectAndSpilledBlock) {
  Ledger ledger(64);
  EXPECT_EQ(ledger.memory_bytes(), sizeof(Ledger));
  for (std::uint32_t j = 0; j < Ledger::kInlineClasses; ++j)
    ledger.add_real(j, 1);
  EXPECT_EQ(ledger.memory_bytes(), sizeof(Ledger));  // still inline
  ledger.add_real(Ledger::kInlineClasses, 1);
  EXPECT_GT(ledger.memory_bytes(), sizeof(Ledger));  // spilled
}

// A checkpoint of a system whose ledgers spilled past the inline
// capacity restores them exactly, and the restored system continues
// bit-identically.
TEST(LedgerProperty, SpilledLedgersRoundTripThroughCheckpoint) {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 7;
  cfg.borrow_cap = 4;
  System original(16, cfg, 99);
  original.run(Workload::uniform(16, 60, 0.7, 0.4));
  std::size_t spilled = 0;
  for (std::uint32_t p = 0; p < 16; ++p)
    spilled += original.processor(p).ledger.active_classes().size() >
               Ledger::kInlineClasses;
  ASSERT_GT(spilled, 0u) << "workload no longer spills any ledger";

  std::stringstream buffer;
  save_checkpoint(original, buffer);
  System restored = load_checkpoint(buffer);
  for (std::uint32_t p = 0; p < 16; ++p) {
    const Ledger& a = original.processor(p).ledger;
    const Ledger& b = restored.processor(p).ledger;
    EXPECT_EQ(to_vector(a.active_classes()), to_vector(b.active_classes()));
    EXPECT_EQ(to_vector(a.active_d()), to_vector(b.active_d()));
    EXPECT_EQ(to_vector(a.active_b()), to_vector(b.active_b()));
    EXPECT_EQ(to_vector(a.marked_classes()), to_vector(b.marked_classes()));
    EXPECT_EQ(a.real_load(), b.real_load());
    EXPECT_EQ(a.borrowed_total(), b.borrowed_total());
  }
  const Workload more = Workload::uniform(16, 40, 0.5, 0.6);
  original.run(more);
  restored.run(more);
  EXPECT_EQ(restored.loads(), original.loads());
  EXPECT_EQ(restored.rng().state(), original.rng().state());
  restored.check_invariants();
}

}  // namespace
}  // namespace dlb
