#include <chrono>

#include "workloads.hh"

namespace perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string &
workdir()
{
    static std::string dir = ".bench_build/run";
    return dir;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt): nearby seeds give
    // unrelated streams, and the result is never 0 (0 means "model
    // default" to makeSource).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z ? z : 1;
}

} // namespace perfbench
