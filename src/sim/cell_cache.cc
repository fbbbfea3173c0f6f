#include "sim/cell_cache.hh"

#include <unistd.h>

#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "model_digest.hh"
#include "sim/logging.hh"

namespace spk
{

namespace
{

/** On-disk format tag. Bump when the key composition or the snapshot
 *  payload layout changes: old entries then miss (magic mismatch)
 *  instead of deserializing garbage. */
constexpr char kMagic[8] = {'S', 'P', 'K', 'C', 'E', 'L', '3', '\n'};

/**
 * 128-bit content digest: two independent FNV-1a streams over the
 * same bytes (the second with a perturbed offset basis). 64 bits is
 * uncomfortably small for a store that silently trusts equal keys;
 * the pair makes an accidental collision astronomically unlikely.
 */
struct Digest128
{
    std::uint64_t a = 1469598103934665603ull;
    std::uint64_t b = 1469598103934665603ull ^
                      0x9e3779b97f4a7c15ull;

    void byte(std::uint8_t v)
    {
        a ^= v;
        a *= 1099511628211ull;
        b ^= v;
        b *= 1099511628211ull;
        b = (b << 1) | (b >> 63); // decorrelate from stream a
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(std::string_view s)
    {
        u64(s.size());
        for (const char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::string hex() const
    {
        char buf[33];
        std::snprintf(buf, sizeof buf, "%016llx%016llx",
                      static_cast<unsigned long long>(a),
                      static_cast<unsigned long long>(b));
        return std::string(buf, 32);
    }
};

/** Feed every config field to the digest, walking the field tables
 *  (sim/field_table.hh) down through the nested structs. */
template <typename C>
void
digestFields(Digest128 &d, const C &c)
{
    C::forEachField([&d, &c](auto member) {
        const auto &v = c.*member;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>)
            d.byte(static_cast<std::uint8_t>(v));
        else if constexpr (std::is_floating_point_v<T>)
            d.f64(v);
        else if constexpr (std::is_integral_v<T>)
            d.u64(v);
        else
            digestFields(d, v);
    });
}

// ---- snapshot payload ------------------------------------------------
//
// The members of the metric field tables, in declaration order, as
// little-endian u64 words (doubles by bit pattern). Strings and the
// stream list are count-prefixed, and so is an array without CSV
// columns (the per-step retry bins), so a resized one fails to load.

/** Walk @p s's payload in field-table order through @p io (a Writer,
 *  or a Reader with a non-const @p s). */
template <typename IO, typename S>
void
transfer(IO &io, S &s)
{
    std::remove_const_t<S>::forEachField([&io, &s](const auto &row) {
        auto &v = s.*row.member;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<StreamMetrics>>) {
            io.count(v);
            for (auto &e : v)
                transfer(io, e);
        } else if constexpr (requires { std::tuple_size<T>::value; }) {
            if constexpr (std::remove_cvref_t<decltype(row)>::width == 0)
                io.count(v);
            for (auto &e : v)
                io.value(e);
        } else {
            io.value(v);
        }
    });
}

struct Writer
{
    std::string out;

    void value(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(
                static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
    }
    void value(double v) { value(std::bit_cast<std::uint64_t>(v)); }
    void value(const std::string &s)
    {
        count(s);
        out.append(s);
    }
    void count(const auto &c) { value(std::uint64_t{c.size()}); }
};

struct Reader
{
    const std::string &in;
    std::size_t pos = 0;
    bool ok = true;

    void value(std::uint64_t &v)
    {
        v = 0;
        if (pos + 8 > in.size()) {
            ok = false;
            return;
        }
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(in[pos + i]))
                 << (8 * i);
        pos += 8;
    }
    void value(double &v)
    {
        std::uint64_t bits;
        value(bits);
        v = std::bit_cast<double>(bits);
    }
    void value(std::string &s)
    {
        std::uint64_t len;
        value(len);
        ok = ok && len <= in.size() - pos;
        s = ok ? in.substr(pos, len) : std::string();
        pos += s.size();
    }
    /** A list count must fit in what is left. */
    template <typename T>
    void count(std::vector<T> &v)
    {
        std::uint64_t n;
        value(n);
        ok = ok && n <= in.size() - pos;
        v.resize(ok ? n : 0);
    }
    /** A fixed array's stored count must match its size. */
    template <typename T, std::size_t N>
    void count(std::array<T, N> &)
    {
        std::uint64_t n;
        value(n);
        ok = ok && n == N;
    }
};

} // namespace

std::string_view
CellCache::modelDigest()
{
    return SPK_MODEL_DIGEST;
}

std::string
CellCache::keyOf(const DeviceJob &job, std::string_view model)
{
    Digest128 d;
    d.str(model);
    digestFields(d, job.cfg);
    d.byte(job.preconditionGc);
    d.byte(static_cast<std::uint8_t>(job.fidelity));
    // Workload content: the digest + record count of each trace, plus
    // every stream attribute that shapes replay. Intern-sharing is
    // invisible here by design — equal content hashes equal.
    d.u64(job.trace.size());
    d.u64(job.trace.digest());
    d.u64(job.streams.size());
    for (const auto &s : job.streams) {
        d.str(s.name);
        d.u64(s.iodepth);
        d.u64(s.weight);
        d.u64(s.priority);
        d.u64(s.trace.size());
        d.u64(s.trace.digest());
    }
    return d.hex();
}

std::string
CellCache::serialize(const MetricsSnapshot &m)
{
    Writer w;
    transfer(w, m);
    return w.out;
}

bool
CellCache::deserialize(const std::string &payload, MetricsSnapshot &out)
{
    Reader r{payload};
    MetricsSnapshot m;
    transfer(r, m);
    if (!r.ok || r.pos != payload.size())
        return false;
    out = std::move(m);
    return true;
}

CellCache::CellCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_))
        fatal("CellCache: cannot create cache directory " + dir_);
}

std::string
CellCache::pathOf(const std::string &key) const
{
    return dir_ + "/" + key + ".cell";
}

bool
CellCache::lookup(const DeviceJob &job, MetricsSnapshot &out)
{
    const std::string key = keyOf(job);
    std::ifstream is(pathOf(key), std::ios::binary);
    if (!is) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string blob = buf.str();
    // Header: magic + the full key (guards against a hand-renamed or
    // colliding file serving the wrong cell).
    const std::size_t header = sizeof kMagic + key.size();
    if (blob.size() < header ||
        blob.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0 ||
        blob.compare(sizeof kMagic, key.size(), key) != 0 ||
        !deserialize(blob.substr(header), out)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
CellCache::store(const DeviceJob &job, const MetricsSnapshot &m)
{
    const std::string key = keyOf(job);
    const std::string path = pathOf(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return; // unwritable cache: accelerator only, not fatal
        os.write(kMagic, sizeof kMagic);
        os.write(key.data(),
                 static_cast<std::streamsize>(key.size()));
        const std::string payload = serialize(m);
        os.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
        if (!os)
            return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace spk
