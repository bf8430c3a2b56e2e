#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/bytes.h"
#include "util/logging.h"

namespace specinfer {
namespace util {

void
writeRngState(ByteWriter &w, const RngState &state)
{
    for (uint64_t word : state.s)
        w.pod<uint64_t>(word);
    w.pod<uint8_t>(state.hasCachedNormal ? 1 : 0);
    w.pod<double>(state.cachedNormal);
}

RngState
readRngState(ByteReader &r)
{
    RngState state;
    for (uint64_t &word : state.s)
        word = r.pod<uint64_t>();
    state.hasCachedNormal = r.pod<uint8_t>() != 0;
    state.cachedNormal = r.pod<double>();
    return state;
}

uint64_t
jitteredBackoff(Rng &rng, uint64_t unit, size_t doublings, uint64_t cap)
{
    const uint64_t base =
        std::min(unit << std::min<size_t>(doublings, 16), cap);
    return base + rng.uniformInt(base / 2 + 1);
}

uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
hashString(const char *str)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char *p = str; *p; ++p) {
        h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (int i = 0; i < 4; ++i)
        state_[i] = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    SPECINFER_CHECK(n > 0, "uniformInt requires n > 0");
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = (0 - n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    SPECINFER_CHECK(lo <= hi, "uniformInt requires lo <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    cachedNormal_ = mag * std::sin(2.0 * M_PI * u2);
    hasCachedNormal_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

size_t
Rng::categorical(const std::vector<float> &weights)
{
    SPECINFER_CHECK(!weights.empty(), "categorical on empty weights");
    double total = 0.0;
    for (float w : weights) {
        SPECINFER_CHECK(w >= 0.0f, "categorical weight must be >= 0");
        total += w;
    }
    SPECINFER_CHECK(total > 0.0, "categorical weights sum to zero");
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    // Floating-point edge: fall back to the last positive weight.
    for (size_t i = weights.size(); i > 0; --i) {
        if (weights[i - 1] > 0.0f)
            return i - 1;
    }
    return weights.size() - 1;
}

RngState
Rng::state() const
{
    RngState st;
    for (int i = 0; i < 4; ++i)
        st.s[i] = state_[i];
    st.hasCachedNormal = hasCachedNormal_;
    st.cachedNormal = cachedNormal_;
    return st;
}

void
Rng::setState(const RngState &state)
{
    for (int i = 0; i < 4; ++i)
        state_[i] = state.s[i];
    hasCachedNormal_ = state.hasCachedNormal;
    cachedNormal_ = state.cachedNormal;
}

Rng
Rng::fork()
{
    // Mix two outputs so the child stream is decorrelated.
    uint64_t a = next();
    uint64_t b = next();
    return Rng(a ^ rotl(b, 23) ^ 0x9e3779b97f4a7c15ULL);
}

} // namespace util
} // namespace specinfer
