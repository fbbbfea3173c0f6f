/**
 * @file
 * Allocation-stable double-ended queue.
 *
 * std::deque allocates and frees a node block every ~64 elements as
 * items flow through, so even a bounded producer/consumer queue keeps
 * touching the heap forever. RingDeque stores elements in one
 * power-of-two circular buffer that only ever grows: once a queue
 * reaches its high-water mark it never allocates again, which is the
 * property the simulator's steady-state zero-allocation invariant
 * needs (NVMHC device queue, controller pending queues, block free
 * lists).
 *
 * Supports push/pop at both ends, random-access iteration and
 * erase-by-iterator (linear shift; queues here are short and the
 * erase order is deterministic either way).
 */

#ifndef SPK_SIM_RING_DEQUE_HH
#define SPK_SIM_RING_DEQUE_HH

#include <cstddef>
#include <iterator>
#include <vector>

namespace spk
{

template <typename T>
class RingDeque
{
  public:
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;
        using Container =
            std::conditional_t<Const, const RingDeque, RingDeque>;

        Iter() = default;
        Iter(Container *dq, std::size_t pos) : dq_(dq), pos_(pos) {}

        /** Iterator -> const_iterator conversion. */
        operator Iter<true>() const { return {dq_, pos_}; }

        reference operator*() const { return (*dq_)[pos_]; }
        pointer operator->() const { return &(*dq_)[pos_]; }
        reference operator[](difference_type n) const
        {
            return (*dq_)[pos_ + static_cast<std::size_t>(n)];
        }

        Iter &operator++() { ++pos_; return *this; }
        Iter operator++(int) { Iter t = *this; ++pos_; return t; }
        Iter &operator--() { --pos_; return *this; }
        Iter operator--(int) { Iter t = *this; --pos_; return t; }

        Iter &operator+=(difference_type n)
        {
            pos_ = static_cast<std::size_t>(
                static_cast<difference_type>(pos_) + n);
            return *this;
        }
        Iter &operator-=(difference_type n) { return *this += -n; }
        friend Iter operator+(Iter it, difference_type n)
        {
            return it += n;
        }
        friend Iter operator+(difference_type n, Iter it)
        {
            return it += n;
        }
        friend Iter operator-(Iter it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type operator-(const Iter &a, const Iter &b)
        {
            return static_cast<difference_type>(a.pos_) -
                   static_cast<difference_type>(b.pos_);
        }

        friend bool operator==(const Iter &a, const Iter &b)
        {
            return a.pos_ == b.pos_;
        }
        friend bool operator!=(const Iter &a, const Iter &b)
        {
            return a.pos_ != b.pos_;
        }
        friend bool operator<(const Iter &a, const Iter &b)
        {
            return a.pos_ < b.pos_;
        }
        friend bool operator>(const Iter &a, const Iter &b)
        {
            return a.pos_ > b.pos_;
        }
        friend bool operator<=(const Iter &a, const Iter &b)
        {
            return a.pos_ <= b.pos_;
        }
        friend bool operator>=(const Iter &a, const Iter &b)
        {
            return a.pos_ >= b.pos_;
        }

        std::size_t pos() const { return pos_; }

      private:
        Container *dq_ = nullptr;
        std::size_t pos_ = 0; //!< logical index from the front
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;
    using value_type = T;

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &operator[](std::size_t i)
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count_ - 1]; }
    const T &back() const { return (*this)[count_ - 1]; }

    // Arguments are taken by value: growth reallocates the buffer, so
    // a reference into this deque (push_back(dq.front())) would
    // otherwise dangle across reserveOne().
    void
    push_back(T v)
    {
        reserveOne();
        buf_[(head_ + count_) & (buf_.size() - 1)] = v;
        ++count_;
    }

    void
    push_front(T v)
    {
        reserveOne();
        head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
        buf_[head_] = v;
        ++count_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    void pop_back() { --count_; }

    /** Remove the element at @p pos by shifting the tail left. */
    iterator
    erase(const_iterator pos)
    {
        const std::size_t at = pos.pos();
        for (std::size_t i = at; i + 1 < count_; ++i)
            (*this)[i] = (*this)[i + 1];
        --count_;
        return iterator{this, at};
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }
    const_iterator cbegin() const { return begin(); }
    const_iterator cend() const { return end(); }

    /** Backing-buffer capacity (its high-water mark). */
    std::size_t capacity() const { return buf_.size(); }

    /** Grow the buffer to hold at least @p n elements up front. */
    void
    reserve(std::size_t n)
    {
        if (n <= buf_.size())
            return;
        std::size_t fresh_size =
            buf_.empty() ? kMinCapacity : buf_.size();
        while (fresh_size < n)
            fresh_size *= 2;
        std::vector<T> fresh(fresh_size);
        for (std::size_t i = 0; i < count_; ++i)
            fresh[i] = (*this)[i];
        buf_ = std::move(fresh);
        head_ = 0;
    }

  private:
    void
    reserveOne()
    {
        if (count_ == buf_.size())
            reserve(count_ + 1);
    }

    static constexpr std::size_t kMinCapacity = 8;

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace spk

#endif // SPK_SIM_RING_DEQUE_HH
