#include "core/ledger.hpp"

#include <algorithm>
#include <new>

#include "support/check.hpp"

namespace dlb {

Ledger::Ledger(std::uint32_t classes) : data_(inline_), classes_(classes) {
  DLB_REQUIRE(classes >= 1, "ledger needs at least one load class");
}

Ledger::~Ledger() {
  if (spilled()) ::operator delete(data_);
}

Ledger::Ledger(const Ledger& other)
    : data_(inline_), classes_(other.classes_) {
  reserve_slots(other.size_);
  copy_entries(other);
}

Ledger::Ledger(Ledger&& other) noexcept
    : data_(inline_), classes_(other.classes_) {
  if (other.spilled()) {
    // Take over the heap block; the source falls back to empty inline.
    data_ = other.data_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    marked_size_ = other.marked_size_;
    real_ = other.real_;
    borrowed_ = other.borrowed_;
    other.data_ = other.inline_;
    other.reset_inline();
  } else {
    copy_entries(other);
    other.reset_inline();
  }
}

Ledger& Ledger::operator=(const Ledger& other) {
  if (this == &other) return *this;
  classes_ = other.classes_;
  size_ = 0;
  marked_size_ = 0;
  reserve_slots(other.size_);
  copy_entries(other);
  return *this;
}

Ledger& Ledger::operator=(Ledger&& other) noexcept {
  if (this == &other) return *this;
  if (other.spilled()) {
    if (spilled()) ::operator delete(data_);
    data_ = other.data_;
    capacity_ = other.capacity_;
    classes_ = other.classes_;
    size_ = other.size_;
    marked_size_ = other.marked_size_;
    real_ = other.real_;
    borrowed_ = other.borrowed_;
    other.data_ = other.inline_;
  } else {
    // other.size_ <= kInlineClasses <= capacity_: fits our block as is.
    classes_ = other.classes_;
    copy_entries(other);
  }
  other.reset_inline();
  return *this;
}

void Ledger::reset_inline() {
  if (spilled()) ::operator delete(data_);
  data_ = inline_;
  capacity_ = kInlineClasses;
  size_ = 0;
  marked_size_ = 0;
  real_ = 0;
  borrowed_ = 0;
}

void Ledger::copy_entries(const Ledger& other) {
  std::copy_n(other.cls_data(), other.size_, cls_data());
  std::copy_n(other.marked_data(), other.marked_size_, marked_data());
  std::copy_n(other.d_data(), other.size_, d_data());
  std::copy_n(other.b_data(), other.size_, b_data());
  size_ = other.size_;
  marked_size_ = other.marked_size_;
  real_ = other.real_;
  borrowed_ = other.borrowed_;
}

void Ledger::grow_slots(std::uint32_t slots) {
  // Doubling, but never past the class count (no ledger holds more).
  const std::uint32_t cap = std::max(slots, std::min(2 * capacity_, classes_));
  auto* block = static_cast<std::byte*>(::operator new(cap * kSlotBytes));
  auto* cls = reinterpret_cast<std::uint32_t*>(block);
  auto* marked = cls + cap;
  auto* d = reinterpret_cast<std::int64_t*>(block +
                                            2 * sizeof(std::uint32_t) * cap);
  auto* b = d + cap;
  std::copy_n(cls_data(), size_, cls);
  std::copy_n(marked_data(), marked_size_, marked);
  std::copy_n(d_data(), size_, d);
  std::copy_n(b_data(), size_, b);
  if (spilled()) ::operator delete(data_);
  data_ = block;
  capacity_ = cap;
}

void Ledger::insert_entry(std::uint32_t pos, std::uint32_t j,
                          std::int64_t d_val, std::int64_t b_val) {
  reserve_slots(size_ + 1);
  std::uint32_t* cls = cls_data();
  std::int64_t* d = d_data();
  std::int64_t* b = b_data();
  std::copy_backward(cls + pos, cls + size_, cls + size_ + 1);
  std::copy_backward(d + pos, d + size_, d + size_ + 1);
  std::copy_backward(b + pos, b + size_, b + size_ + 1);
  cls[pos] = j;
  d[pos] = d_val;
  b[pos] = b_val;
  ++size_;
}

void Ledger::erase_entry(std::uint32_t pos) {
  std::uint32_t* cls = cls_data();
  std::int64_t* d = d_data();
  std::int64_t* b = b_data();
  std::copy(cls + pos + 1, cls + size_, cls + pos);
  std::copy(d + pos + 1, d + size_, d + pos);
  std::copy(b + pos + 1, b + size_, b + pos);
  --size_;
}

void Ledger::drop_if_zero(std::uint32_t pos) {
  if (d_data()[pos] == 0 && b_data()[pos] == 0) erase_entry(pos);
}

void Ledger::insert_marked(std::uint32_t j) {
  // A marked class is active, so marked_size_ < size_ <= capacity_ here.
  std::uint32_t* marked = marked_data();
  std::uint32_t* end = marked + marked_size_;
  std::uint32_t* at = std::lower_bound(marked, end, j);
  std::copy_backward(at, end, end + 1);
  *at = j;
  ++marked_size_;
}

void Ledger::erase_marked(std::uint32_t j) {
  std::uint32_t* marked = marked_data();
  std::uint32_t* end = marked + marked_size_;
  std::uint32_t* at = std::lower_bound(marked, end, j);
  DLB_ENSURE(at != end && *at == j, "sparse index out of sync");
  std::copy(at + 1, end, at);
  --marked_size_;
}

void Ledger::rebuild_marked() {
  const std::uint32_t* cls = cls_data();
  const std::int64_t* b = b_data();
  std::uint32_t* marked = marked_data();
  marked_size_ = 0;
  for (std::uint32_t i = 0; i < size_; ++i)
    if (b[i] > 0) marked[marked_size_++] = cls[i];
}

void Ledger::add_real(std::uint32_t j, std::int64_t count) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(count >= 0, "cannot add a negative packet count");
  const std::uint32_t pos = slot(j);
  if (pos < size_) {
    d_data()[pos] += count;
  } else if (count > 0) {
    insert_entry(lower_slot(j), j, count, 0);
  }
  real_ += count;
}

void Ledger::remove_real(std::uint32_t j, std::int64_t count) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(count >= 0, "cannot remove a negative packet count");
  const std::uint32_t pos = slot(j);
  const std::int64_t held = pos < size_ ? d_data()[pos] : 0;
  DLB_REQUIRE(held >= count, "not enough real packets of this class");
  if (pos < size_) {
    d_data()[pos] -= count;
    drop_if_zero(pos);
  }
  real_ -= count;
}

void Ledger::borrow(std::uint32_t j) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  const std::uint32_t pos = slot(j);
  DLB_REQUIRE(pos < size_ && d_data()[pos] > 0,
              "borrow needs a real packet of the class");
  DLB_REQUIRE(b_data()[pos] == 0, "at most one marker per class (paper, §4)");
  // d + b goes 1 packet -> 1 marker: the entry stays active throughout.
  d_data()[pos] -= 1;
  b_data()[pos] += 1;
  real_ -= 1;
  borrowed_ += 1;
  insert_marked(j);
}

void Ledger::clear_marker(std::uint32_t j) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  const std::uint32_t pos = slot(j);
  DLB_REQUIRE(pos < size_ && b_data()[pos] > 0,
              "no marker of this class to clear");
  b_data()[pos] -= 1;
  borrowed_ -= 1;
  if (b_data()[pos] == 0) erase_marked(j);
  drop_if_zero(pos);
}

void Ledger::repay_with_generation(std::uint32_t j) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  const std::uint32_t pos = slot(j);
  DLB_REQUIRE(pos < size_ && b_data()[pos] > 0,
              "no outstanding debt of this class");
  // Marker -> real packet: the entry stays active throughout.
  b_data()[pos] -= 1;
  borrowed_ -= 1;
  if (b_data()[pos] == 0) erase_marked(j);
  d_data()[pos] += 1;
  real_ += 1;
}

void Ledger::set_d(std::uint32_t j, std::int64_t value) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(value >= 0, "negative real count");
  const std::uint32_t pos = lower_slot(j);
  if (pos < size_ && cls_data()[pos] == j) {
    real_ += value - d_data()[pos];
    d_data()[pos] = value;
    drop_if_zero(pos);
  } else if (value > 0) {
    insert_entry(pos, j, value, 0);
    real_ += value;
  }
}

void Ledger::set_b(std::uint32_t j, std::int64_t value) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(value == 0 || value == 1,
              "marker counts are 0 or 1 (paper, §4)");
  const std::uint32_t pos = lower_slot(j);
  if (pos < size_ && cls_data()[pos] == j) {
    if (b_data()[pos] == value) return;
    borrowed_ += value - b_data()[pos];
    b_data()[pos] = value;
    if (value > 0) {
      insert_marked(j);
    } else {
      erase_marked(j);
      drop_if_zero(pos);
    }
  } else if (value > 0) {
    insert_entry(pos, j, 0, 1);
    borrowed_ += 1;
    insert_marked(j);
  }
}

void Ledger::apply_dealt(const std::uint32_t* cls, std::size_t k,
                         const std::int64_t* d_vals,
                         const std::int64_t* b_vals) {
  DLB_REQUIRE(cls != nullptr || k == 0, "null class list");
  // Pass 1 (pure reads): validate the dealt columns and count the union
  // of the old active list and cls — the room the in-place merge needs.
  std::size_t ai = 0;
  std::size_t shared = 0;
  std::uint32_t prev = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::uint32_t j = cls[c];
    DLB_REQUIRE(j < classes_, "load class out of range");
    DLB_REQUIRE(c == 0 || j > prev, "class list must be strictly ascending");
    prev = j;
    DLB_REQUIRE(d_vals[c] >= 0, "negative real count");
    DLB_REQUIRE(b_vals[c] == 0 || b_vals[c] == 1,
                "marker counts are 0 or 1 (paper, §4)");
    while (ai < size_ && cls_data()[ai] < j) ++ai;
    if (ai < size_ && cls_data()[ai] == j) ++shared;
  }
  const auto union_size = static_cast<std::uint32_t>(size_ + k - shared);
  reserve_slots(union_size);
  // Pass 2: merge backwards from the end of the union's room.  Every
  // union element consumes one slot at most, so the write cursor w never
  // drops below the unread old prefix [0, ai) — no scratch buffer.
  std::uint32_t* act = cls_data();
  std::int64_t* d = d_data();
  std::int64_t* b = b_data();
  std::uint32_t a = size_;
  std::uint32_t w = union_size;
  for (std::size_t c = k; c-- > 0;) {
    const std::uint32_t j = cls[c];
    while (a > 0 && act[a - 1] > j) {
      --a;
      --w;
      act[w] = act[a];
      d[w] = d[a];
      b[w] = b[a];
    }
    std::int64_t old_d = 0;
    std::int64_t old_b = 0;
    if (a > 0 && act[a - 1] == j) {
      --a;
      old_d = d[a];
      old_b = b[a];
    }
    real_ += d_vals[c] - old_d;
    borrowed_ += b_vals[c] - old_b;
    if (d_vals[c] > 0 || b_vals[c] > 0) {
      --w;
      act[w] = j;
      d[w] = d_vals[c];
      b[w] = b_vals[c];
    }
  }
  // The untouched old prefix [0, a) stays put; close the gap after it.
  const std::uint32_t tail = union_size - w;
  if (a != w) {
    std::copy(act + w, act + union_size, act + a);
    std::copy(d + w, d + union_size, d + a);
    std::copy(b + w, b + union_size, b + a);
  }
  size_ = a + tail;
  rebuild_marked();
}

void Ledger::replace_dealt(const std::uint32_t* cls, std::size_t k,
                           const std::int64_t* d_vals,
                           const std::int64_t* b_vals, std::size_t stride) {
  DLB_REQUIRE(cls != nullptr || k == 0, "null class list");
  DLB_REQUIRE(stride >= 1, "write-back stride must be positive");
  // Pass 1 (pure reads): validate the dealt row, sum the new totals, and
  // verify the superset precondition by walking the old active list
  // alongside cls, so the post state is determined by the dealt values
  // alone.  Each check is folded over the row and tested once, before any
  // write: a strictly ascending list is in range when its last class is,
  // and OR-ing the counts shows a negative d in the sign bit and a b
  // outside {0, 1} above the lowest.
  bool ascending = true;
  for (std::size_t c = 1; c < k; ++c) ascending &= cls[c] > cls[c - 1];
  DLB_REQUIRE(ascending, "class list must be strictly ascending");
  DLB_REQUIRE(k == 0 || cls[k - 1] < classes_, "load class out of range");
  std::int64_t d_bits = 0;
  std::int64_t b_bits = 0;
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::uint32_t live = 0;
  const std::uint32_t* act = cls_data();
  std::size_t ai = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::int64_t dv = d_vals[c * stride];
    const std::int64_t bv = b_vals[c * stride];
    // Branch-free bookkeeping: which columns are live or match an old
    // entry is data-dependent, so counting them with branches would
    // mispredict on most columns.
    if (ai < size_) ai += act[ai] == cls[c] ? 1 : 0;
    d_bits |= dv;
    b_bits |= bv;
    real += dv;
    borrowed += bv;
    live += (dv | bv) != 0 ? 1 : 0;
  }
  DLB_REQUIRE(d_bits >= 0, "negative real count");
  DLB_REQUIRE((b_bits & ~std::int64_t{1}) == 0,
              "marker counts are 0 or 1 (paper, §4)");
  DLB_REQUIRE(ai == size_,
              "replace_dealt needs cls to cover every active class");
  // Pass 2: rebuild the slots in place — the old contents are fully
  // superseded, so no merge is needed.  Every column is written at the
  // next free slot, which advances only past live ones; the loop stops
  // at the last live column, so the write index stays below live <=
  // capacity_.
  size_ = 0;  // nothing to carry over if the block grows
  marked_size_ = 0;
  reserve_slots(live);
  std::uint32_t* out_cls = cls_data();
  std::uint32_t* marked = marked_data();
  std::int64_t* d = d_data();
  std::int64_t* b = b_data();
  std::uint32_t size = 0;
  std::uint32_t marked_size = 0;
  for (std::size_t c = 0; size < live; ++c) {
    const std::int64_t dv = d_vals[c * stride];
    const std::int64_t bv = b_vals[c * stride];
    out_cls[size] = cls[c];
    d[size] = dv;
    b[size] = bv;
    marked[marked_size] = cls[c];
    size += (dv | bv) != 0 ? 1 : 0;
    marked_size += static_cast<std::uint32_t>(bv);
  }
  size_ = size;
  marked_size_ = marked_size;
  real_ = real;
  borrowed_ = borrowed;
}

void Ledger::replace(std::vector<std::int64_t> d_new,
                     std::vector<std::int64_t> b_new) {
  DLB_REQUIRE(d_new.size() == classes_ && b_new.size() == classes_,
              "replacement vectors must match the class count");
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::uint32_t live = 0;
  for (std::size_t j = 0; j < d_new.size(); ++j) {
    DLB_REQUIRE(d_new[j] >= 0, "negative real count in replacement");
    DLB_REQUIRE(b_new[j] >= 0, "negative marker count in replacement");
    real += d_new[j];
    borrowed += b_new[j];
    if (d_new[j] > 0 || b_new[j] > 0) ++live;
  }
  size_ = 0;
  marked_size_ = 0;
  reserve_slots(live);
  std::uint32_t* cls = cls_data();
  std::uint32_t* marked = marked_data();
  std::int64_t* d = d_data();
  std::int64_t* b = b_data();
  for (std::uint32_t j = 0; j < classes_; ++j) {
    if (d_new[j] > 0 || b_new[j] > 0) {
      cls[size_] = j;
      d[size_] = d_new[j];
      b[size_] = b_new[j];
      ++size_;
    }
    if (b_new[j] > 0) marked[marked_size_++] = j;
  }
  real_ = real;
  borrowed_ = borrowed;
}

void Ledger::reserve_active(std::uint32_t k) {
  reserve_slots(std::min(k, classes_));
}

std::uint32_t Ledger::first_marked_class() const {
  return marked_size_ == 0 ? classes_ : marked_data()[0];
}

void Ledger::check(std::uint32_t borrow_cap) const {
  DLB_ENSURE(size_ <= capacity_ && marked_size_ <= size_,
             "slot counts exceed the block (S2)");
  const std::uint32_t* act = cls_data();
  const std::uint32_t* marked = marked_data();
  const std::int64_t* d = d_data();
  const std::int64_t* b = b_data();
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::uint32_t marked_count = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    DLB_ENSURE(act[i] < classes_, "active class out of range (S1)");
    DLB_ENSURE(i == 0 || act[i] > act[i - 1],
               "active classes not strictly ascending (S1/L3)");
    DLB_ENSURE(d[i] >= 0, "negative real count");
    DLB_ENSURE(b[i] >= 0, "negative marker count");
    DLB_ENSURE(d[i] > 0 || b[i] > 0,
               "zero entry stored in the compact ledger (S1)");
    real += d[i];
    borrowed += b[i];
    if (b[i] > 0) {
      DLB_ENSURE(marked_count < marked_size_ &&
                     marked[marked_count] == act[i],
                 "marked-class index out of sync (L4)");
      ++marked_count;
    }
  }
  DLB_ENSURE(marked_count == marked_size_,
             "stale entries in the marked-class index (L4)");
  DLB_ENSURE(real == real_, "cached real load out of sync (L1)");
  DLB_ENSURE(borrowed == borrowed_, "cached borrow total out of sync");
  DLB_ENSURE(borrowed_ <= static_cast<std::int64_t>(borrow_cap),
             "borrow cap exceeded (L2)");
}

std::vector<std::int64_t> Ledger::dense_d() const {
  std::vector<std::int64_t> out(classes_, 0);
  for (std::uint32_t i = 0; i < size_; ++i) out[cls_data()[i]] = d_data()[i];
  return out;
}

std::vector<std::int64_t> Ledger::dense_b() const {
  std::vector<std::int64_t> out(classes_, 0);
  for (std::uint32_t i = 0; i < size_; ++i) out[cls_data()[i]] = b_data()[i];
  return out;
}

std::size_t Ledger::memory_bytes() const {
  return sizeof(Ledger) + (spilled() ? capacity_ * kSlotBytes : 0);
}

}  // namespace dlb
