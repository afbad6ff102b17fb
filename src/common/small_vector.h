/**
 * @file
 * Minimal small-buffer vector for trivially copyable element types.
 *
 * The serve core keeps one ready set and one gated heap per executor;
 * a fleet run has one executor per pod and most hold only a handful of
 * runnable tenants at any instant.  std::set / std::priority_queue put
 * every element (or the backing array) on the heap, so the event hot
 * path pays an allocator round trip per scheduling transition.  This
 * container stores the first N elements inline in the owning object --
 * which for the fleet means inside the PodRt array, contiguous and
 * prefetch-friendly -- and only touches the heap when an executor
 * grows past N.  Heap capacity, once acquired, is kept until
 * destruction (the epoch loop's reuse pattern), so steady-state
 * executors allocate nothing at all.
 *
 * Deliberately not a general std::vector replacement: trivially
 * copyable elements only (memcpy moves, no destructor calls), growth
 * by doubling, and just the operations the serve core and the fleet
 * engine use.
 */

#ifndef DIVA_COMMON_SMALL_VECTOR_H
#define DIVA_COMMON_SMALL_VECTOR_H

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace diva
{

template <class T, std::size_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector relies on memcpy relocation");
    static_assert(N > 0, "inline capacity must be positive");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    SmallVector() = default;

    SmallVector(const SmallVector &o) { assign(o); }

    SmallVector(SmallVector &&o) noexcept { adopt(std::move(o)); }

    SmallVector &operator=(const SmallVector &o)
    {
        if (this != &o) {
            size_ = 0;
            assign(o);
        }
        return *this;
    }

    SmallVector &operator=(SmallVector &&o) noexcept
    {
        if (this != &o) {
            release();
            adopt(std::move(o));
        }
        return *this;
    }

    ~SmallVector() { release(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    T *data() { return data_; }
    const T *data() const { return data_; }
    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &front() { return data_[0]; }
    const T &front() const { return data_[0]; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    void clear() { size_ = 0; }

    void reserve(std::size_t cap)
    {
        if (cap > cap_)
            grow(cap);
    }

    void push_back(const T &v)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        data_[size_++] = v;
    }

    void pop_back() { --size_; }

    /** Insert `v` before `pos`, shifting the tail up one slot. */
    iterator insert(iterator pos, const T &v)
    {
        const std::size_t at = std::size_t(pos - data_);
        if (size_ == cap_)
            grow(cap_ * 2);
        std::memmove(data_ + at + 1, data_ + at,
                     (size_ - at) * sizeof(T));
        data_[at] = v;
        ++size_;
        return data_ + at;
    }

    /** Erase the element at `pos`; returns the next element. */
    iterator erase(iterator pos) { return erase(pos, pos + 1); }

    /** Erase [first, last), shifting the tail down; returns the
     *  element after the erased ones. */
    iterator erase(iterator first, iterator last)
    {
        const std::size_t at = std::size_t(first - data_);
        const std::size_t gone = std::size_t(last - first);
        std::memmove(data_ + at, last, (size_ - at - gone) * sizeof(T));
        size_ -= gone;
        return data_ + at;
    }

  private:
    void assign(const SmallVector &o)
    {
        reserve(o.size_);
        std::memcpy(data_, o.data_, o.size_ * sizeof(T));
        size_ = o.size_;
    }

    /** Move-steal: takes o's heap block, or memcpys its inline data. */
    void adopt(SmallVector &&o)
    {
        if (o.data_ != o.inlineData()) {
            data_ = o.data_;
            cap_ = o.cap_;
        } else {
            data_ = inlineData();
            cap_ = N;
            std::memcpy(data_, o.data_, o.size_ * sizeof(T));
        }
        size_ = o.size_;
        o.data_ = o.inlineData();
        o.cap_ = N;
        o.size_ = 0;
    }

    void release()
    {
        if (data_ != inlineData())
            ::operator delete(data_);
        data_ = inlineData();
        cap_ = N;
    }

    void grow(std::size_t cap)
    {
        cap = std::max(cap, N * 2);
        T *fresh = static_cast<T *>(::operator new(cap * sizeof(T)));
        std::memcpy(fresh, data_, size_ * sizeof(T));
        if (data_ != inlineData())
            ::operator delete(data_);
        data_ = fresh;
        cap_ = cap;
    }

    T *inlineData() { return std::launder(reinterpret_cast<T *>(inline_)); }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *data_ = inlineData();
    std::size_t size_ = 0;
    std::size_t cap_ = N;
};

} // namespace diva

#endif // DIVA_COMMON_SMALL_VECTOR_H
