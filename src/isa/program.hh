/**
 * @file
 * Workload program representation and a small assembler-style builder.
 *
 * A Program is a static array of uops indexed by PC (each uop is one PC
 * step), a set of initial architectural register values, and a
 * background function defining the initial memory image. Programs are
 * infinite loops; the simulation runs them for a configured number of
 * retired instructions.
 */

#ifndef RAB_ISA_PROGRAM_HH
#define RAB_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/functional.hh"
#include "isa/uop.hh"

namespace rab
{

/** Number of architectural registers visible to programs. */
inline constexpr int kNumArchRegs = 32;

/** A complete workload program. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** The static uop at @p pc. PCs wrap modulo program size. */
    const Uop &fetch(Pc pc) const;

    std::size_t size() const { return code_.size(); }
    bool empty() const { return code_.empty(); }

    void append(const Uop &uop) { code_.push_back(uop); }
    Uop &at(Pc pc) { return code_.at(pc); }
    const Uop &at(Pc pc) const { return code_.at(pc); }

    /** Initial value of architectural register @p reg. */
    std::uint64_t initialReg(ArchReg reg) const;
    void setInitialReg(ArchReg reg, std::uint64_t value);

    /** Background memory image generator (see FunctionalMemory). */
    const FunctionalMemory::BackgroundFn &memoryImage() const
    {
        return memoryImage_;
    }
    void setMemoryImage(FunctionalMemory::BackgroundFn fn)
    {
        memoryImage_ = std::move(fn);
    }

    /** Validate targets and register indices; panics on corruption. */
    void validate() const;

    /** Disassembly listing of the whole program. */
    std::string disassemble() const;

  private:
    std::string name_;
    std::vector<Uop> code_;
    std::map<ArchReg, std::uint64_t> initialRegs_;
    FunctionalMemory::BackgroundFn memoryImage_;
};

/**
 * Assembler-style builder with forward-referencable labels.
 *
 * Usage:
 * @code
 *   ProgramBuilder b("chase");
 *   auto loop = b.label();
 *   b.load(2, 1, 0);          // r2 = mem[r1]
 *   b.mov(1, 2);              // r1 = r2
 *   b.jump(loop);
 *   Program p = b.build();
 * @endcode
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name);

    /** Opaque label handle. */
    struct Label { int id; };

    /** Create a label bound to the current position. */
    Label label();

    /** Create an unbound label for forward references. */
    Label futureLabel();

    /** Bind a future label to the current position. */
    void bind(Label label);

    /** Current PC (index of the next emitted uop). */
    Pc here() const { return code_.size(); }

    // --- Emitters (each returns the PC of the emitted uop) ---
    Pc nop();
    Pc li(ArchReg dest, std::int64_t imm);
    Pc mov(ArchReg dest, ArchReg src, std::int64_t imm = 0);
    Pc alu(AluFunc func, ArchReg dest, ArchReg src1, ArchReg src2,
           std::int64_t imm = 0);
    Pc add(ArchReg dest, ArchReg src1, ArchReg src2, std::int64_t imm = 0);
    Pc addi(ArchReg dest, ArchReg src, std::int64_t imm);
    Pc mix(ArchReg dest, ArchReg src1, ArchReg src2, std::int64_t imm = 0);
    Pc mul(ArchReg dest, ArchReg src1, ArchReg src2);
    Pc fpAlu(ArchReg dest, ArchReg src1, ArchReg src2);
    Pc fpMul(ArchReg dest, ArchReg src1, ArchReg src2);
    Pc load(ArchReg dest, ArchReg base, std::int64_t offset = 0);
    Pc store(ArchReg base, ArchReg data, std::int64_t offset = 0);
    Pc branch(BranchCond cond, ArchReg src1, ArchReg src2, Label target);
    Pc jump(Label target);

    /** Set an initial register value. */
    void initReg(ArchReg reg, std::uint64_t value);

    /** Install the background memory image. */
    void memoryImage(FunctionalMemory::BackgroundFn fn);

    /** Resolve labels and return the finished program. */
    Program build();

  private:
    Pc emit(Uop uop);

    std::string name_;
    std::vector<Uop> code_;
    std::vector<Pc> labelPcs_;       // id -> bound pc (kNoAddr if unbound)
    std::vector<std::pair<Pc, int>> fixups_; // (uop pc, label id)
    std::map<ArchReg, std::uint64_t> initialRegs_;
    FunctionalMemory::BackgroundFn memoryImage_;
};

} // namespace rab

#endif // RAB_ISA_PROGRAM_HH
