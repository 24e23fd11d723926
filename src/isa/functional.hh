/**
 * @file
 * Functional (value-level) semantics: ALU evaluation, branch condition
 * evaluation, and the sparse functional memory image.
 */

#ifndef RAB_ISA_FUNCTIONAL_HH
#define RAB_ISA_FUNCTIONAL_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.hh"
#include "isa/uop.hh"

namespace rab
{

/**
 * Sparse 64-bit word-granular memory image.
 *
 * Reads of never-written locations fall through to a background
 * function, which lets workloads define gigabyte-scale structured data
 * (e.g. pointer-chase permutations) without materialising it. The
 * default background returns a deterministic hash of the address.
 */
class FunctionalMemory
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    using BackgroundFn = std::function<std::uint64_t(Addr)>;

    FunctionalMemory();

    /** Read the aligned 8-byte word containing @p addr. */
    std::uint64_t read(Addr addr) const;

    /** Write the aligned 8-byte word containing @p addr. */
    void write(Addr addr, std::uint64_t value);

    /** Install the generator used for never-written locations. */
    void setBackground(BackgroundFn fn);

    /** Drop all explicit writes (background remains installed). */
    void clear() { mem_.clear(); }

  private:
    static Addr align(Addr addr) { return addr & ~Addr{7}; }

    std::unordered_map<Addr, std::uint64_t> mem_;
    BackgroundFn background_;
};

/** Deterministic 64-bit mixing hash (splitmix64 finaliser). */
std::uint64_t mix64(std::uint64_t x);

/** Evaluate a non-memory, non-control uop's result. */
std::uint64_t evalAlu(const Uop &uop, std::uint64_t s1, std::uint64_t s2);

/** Evaluate a branch condition given source values. */
bool evalBranch(const Uop &uop, std::uint64_t s1, std::uint64_t s2);

/** Effective address of a memory uop. */
inline Addr
effectiveAddr(const Uop &uop, std::uint64_t base)
{
    return static_cast<Addr>(base + static_cast<std::uint64_t>(uop.imm));
}

} // namespace rab

#endif // RAB_ISA_FUNCTIONAL_HH
