// CowArray<T>: a shared, copy-on-write array — the paper's §4 *database
// array* as a value type. Copies share one immutable std::vector and
// bump a count; a writer mutates in place while it is the only owner
// and clones the array first while a copy is alive, so a copy never
// sees a later write and a sole owner never pays for one.
//
// Thread safety follows std::shared_ptr: distinct CowArray objects may
// be copied and destroyed concurrently even when they share an array.
// A writer must own its CowArray exclusively (no concurrent reader of
// that same object). The uniqueness test reads the count atomically, so
// an owner that dropped its copy on another thread has finished reading
// the array before the writer writes it in place. (std::shared_ptr's
// use_count() gives no such ordering, hence the count here.)

#ifndef MODB_CORE_COW_ARRAY_H_
#define MODB_CORE_COW_ARRAY_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace modb {

template <typename T>
class CowArray {
 public:
  /// The empty array; allocates nothing.
  CowArray() = default;
  explicit CowArray(std::vector<T> items) {
    if (!items.empty()) rep_ = new Rep(std::move(items));
  }

  CowArray(const CowArray& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  CowArray(CowArray&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  CowArray& operator=(CowArray other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~CowArray() { Release(); }

  /// The items. Copies that share an array return the same vector, so
  /// its address identifies the array (all empty arrays share one).
  const std::vector<T>& get() const {
    return rep_ != nullptr ? rep_->items : Empty();
  }

  /// The items for writing: cloned first if shared, so no other owner
  /// sees the write. The clone keeps room for one more item (the live
  /// path replaces the last unit and then appends).
  std::vector<T>& Mutable() {
    if (rep_ == nullptr) {
      rep_ = new Rep({});
    } else if (rep_->refs.load() != 1) {
      std::vector<T> copy;
      copy.reserve(rep_->items.size() + 1);
      copy.assign(rep_->items.begin(), rep_->items.end());
      Rep* fresh = new Rep(std::move(copy));
      Release();
      rep_ = fresh;
    }
    return rep_->items;
  }

 private:
  struct Rep {
    explicit Rep(std::vector<T> v) : items(std::move(v)) {}
    std::atomic<std::size_t> refs{1};
    std::vector<T> items;
  };

  static const std::vector<T>& Empty() {
    static const std::vector<T> kEmpty;
    return kEmpty;
  }

  void Release() {
    if (rep_ != nullptr && --rep_->refs == 0) delete rep_;
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace modb

#endif  // MODB_CORE_COW_ARRAY_H_
