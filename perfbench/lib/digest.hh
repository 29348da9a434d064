/**
 * @file
 * Digest of simulated outputs. Every workload folds the values it
 * checks into one 64-bit FNV-1a digest; repeated runs of one seed,
 * and runs at different engine thread counts, must agree on it.
 */

#ifndef PERFBENCH_LIB_DIGEST_HH
#define PERFBENCH_LIB_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace perfbench
{

class Digest
{
  public:
    void bytes(const void *data, std::size_t len);
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
    /** Doubles are folded bit-exactly, so any change in the last
     *  digit of a simulated result changes the digest. */
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(std::string_view s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // PERFBENCH_LIB_DIGEST_HH
