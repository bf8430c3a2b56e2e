/**
 * @file
 * In-memory byte codec shared by the write-ahead journal
 * (runtime/journal), the serving snapshot (runtime/request_manager,
 * with the sessions it holds) and the IPC wire protocol (ipc/wire).
 *
 * ByteWriter appends fixed-width values and length-prefixed
 * vectors and strings (u64 element count, then the raw elements) to
 * a buffer, in host byte order — little-endian on every supported
 * target. ByteReader walks a buffer with bounds checks: a read past
 * the end (a torn, truncated or hostile payload) flips ok() to false
 * and yields zeros instead of aborting, and an element count is
 * checked against the bytes left before anything is allocated or
 * looped over, so a payload can never make the reader allocate or
 * iterate more than it carries. Decoders read field by field and
 * check ok() — usually together with exhausted() — once at the end.
 *
 * Model weights are the one binary format outside this codec: they
 * stream from files in model/serialization.cc.
 */

#ifndef SPECINFER_UTIL_BYTES_H
#define SPECINFER_UTIL_BYTES_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace specinfer {
namespace util {

/** Append-only payload buffer. */
class ByteWriter
{
  public:
    template <typename T>
    void pod(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        append(&value, sizeof(T));
    }

    template <typename T>
    void podVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        pod<uint64_t>(v.size());
        append(v.data(), v.size() * sizeof(T));
    }

    void string(const std::string &s)
    {
        pod<uint64_t>(s.size());
        append(s.data(), s.size());
    }

    const std::vector<uint8_t> &bytes() const { return buf_; }

  private:
    // Out of line: inlined into a run of fixed-size pod() calls,
    // GCC 12 at -O3 reports false -Warray-bounds and
    // -Wstringop-overflow errors on the vector's growth path.
    [[gnu::noinline]] void append(const void *data, size_t size)
    {
        // An empty vector's data() may be null, and memcpy from null
        // is undefined even for zero bytes.
        if (size == 0)
            return;
        const size_t at = buf_.size();
        buf_.resize(at + size);
        std::memcpy(buf_.data() + at, data, size);
    }

    std::vector<uint8_t> buf_;
};

/** Bounds-checked payload cursor (see the file comment). */
class ByteReader
{
  public:
    ByteReader(const void *data, size_t size)
        : data_(static_cast<const uint8_t *>(data)), size_(size)
    {
    }

    explicit ByteReader(const std::vector<uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {
    }

    template <typename T>
    T pod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (!ok_ || size_ - pos_ < sizeof(T)) {
            ok_ = false;
            return value;
        }
        std::memcpy(&value, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    /**
     * A u64 element count, checked against the bytes left for
     * elements of at least `min_element_bytes` each. A count the
     * payload cannot hold fails the reader and yields 0, so no
     * decoder allocates or loops on a hostile count.
     */
    uint64_t count(size_t min_element_bytes)
    {
        const uint64_t n = pod<uint64_t>();
        if (!ok_ || n > (size_ - pos_) / min_element_bytes) {
            ok_ = false;
            return 0;
        }
        return n;
    }

    template <typename T>
    std::vector<T> podVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<T> v(static_cast<size_t>(count(sizeof(T))));
        if (!v.empty())
            std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(T));
        pos_ += v.size() * sizeof(T);
        return v;
    }

    std::string string()
    {
        const std::vector<char> chars = podVector<char>();
        return std::string(chars.begin(), chars.end());
    }

    bool ok() const { return ok_; }
    bool exhausted() const { return pos_ == size_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace util
} // namespace specinfer

#endif // SPECINFER_UTIL_BYTES_H
