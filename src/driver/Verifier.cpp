//===- driver/Verifier.cpp ------------------------------------------------===//

#include "driver/Verifier.h"
#include "support/Env.h"

#include <cstring>
#include <string>

using namespace flexvec;
using namespace flexvec::driver;
using namespace flexvec::isa;

namespace {

/// Expected register class of one operand slot. Optional slots accept
/// Reg::none(); required slots do not.
enum class Want : uint8_t {
  None,     ///< Must be absent (Reg::none()).
  Scalar,   ///< Required scalar.
  Vector,   ///< Required vector.
  Mask,     ///< Required mask.
  OptScalar,///< Scalar or absent.
  OptVector,///< Vector or absent.
  OptMask,  ///< Mask or absent (absent reads as k0 / all lanes).
};

/// Operand contract of one opcode.
struct OperandSpec {
  Want Dst = Want::None;
  Want Src1 = Want::None;
  Want Src2 = Want::None;
  Want Src3 = Want::None;
  Want MaskReg = Want::None;
  bool NeedsTarget = false;
  bool IsMemory = false; ///< Scale must be 1/2/4/8.
  /// First-faulting: MaskReg is an in/out operand and must be writable
  /// (k1..k7) — k0 cannot record the clip point.
  bool MaskInOut = false;
};

OperandSpec specFor(Opcode Op) {
  OperandSpec S;
  switch (Op) {
  case Opcode::Halt:
  case Opcode::Nop:
  case Opcode::XEnd:
  case Opcode::XAbort:
    return S;
  case Opcode::Jmp:
    S.NeedsTarget = true;
    return S;
  case Opcode::XBegin:
    S.NeedsTarget = true;
    return S;
  case Opcode::BrZero:
  case Opcode::BrNonZero:
    S.Src1 = Want::Scalar;
    S.NeedsTarget = true;
    return S;

  case Opcode::MovImm:
  case Opcode::FMovImm:
    S.Dst = Want::Scalar;
    return S;
  case Opcode::Mov:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Scalar;
    return S;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::Cmp:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FMin:
  case Opcode::FMax:
  case Opcode::FCmp:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::Scalar;
    return S;
  case Opcode::AddImm:
  case Opcode::MulImm:
  case Opcode::AndImm:
  case Opcode::ShlImm:
  case Opcode::ShrImm:
  case Opcode::CmpImm:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Scalar;
    return S;
  case Opcode::Select:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::Scalar;
    S.Src3 = Want::Scalar;
    return S;
  case Opcode::Load:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::OptScalar;
    S.IsMemory = true;
    return S;
  case Opcode::Store:
    S.Src1 = Want::Scalar;
    S.Src2 = Want::OptScalar;
    S.Src3 = Want::Scalar;
    S.IsMemory = true;
    return S;

  case Opcode::VBroadcast:
    S.Dst = Want::Vector;
    S.Src1 = Want::Scalar;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VBroadcastImm:
    S.Dst = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VIndex:
    S.Dst = Want::Vector;
    S.Src1 = Want::Scalar;
    return S;
  case Opcode::VAdd:
  case Opcode::VSub:
  case Opcode::VMul:
  case Opcode::VAnd:
  case Opcode::VOr:
  case Opcode::VXor:
  case Opcode::VMin:
  case Opcode::VMax:
  case Opcode::VFAdd:
  case Opcode::VFSub:
  case Opcode::VFMul:
  case Opcode::VFDiv:
  case Opcode::VFMin:
  case Opcode::VFMax:
    S.Dst = Want::Vector;
    S.Src1 = Want::Vector;
    S.Src2 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VAddImm:
  case Opcode::VMulImm:
  case Opcode::VShlImm:
    S.Dst = Want::Vector;
    S.Src1 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VCmp:
    S.Dst = Want::Mask;
    S.Src1 = Want::Vector;
    S.Src2 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VCmpImm:
    S.Dst = Want::Mask;
    S.Src1 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VBlend:
    S.Dst = Want::Vector;
    S.Src1 = Want::Vector;
    S.Src2 = Want::Vector;
    S.MaskReg = Want::Mask;
    return S;
  case Opcode::VExtractLast:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VReduceAdd:
  case Opcode::VReduceMin:
  case Opcode::VReduceMax:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Vector;
    S.Src2 = Want::Scalar; // running/identity value folded into the result
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VLoad:
    S.Dst = Want::Vector;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::OptScalar;
    S.MaskReg = Want::OptMask;
    S.IsMemory = true;
    return S;
  case Opcode::VStore:
    S.Src1 = Want::Scalar;
    S.Src2 = Want::OptScalar;
    S.Src3 = Want::Vector;
    S.MaskReg = Want::OptMask;
    S.IsMemory = true;
    return S;
  case Opcode::VGather:
    S.Dst = Want::Vector;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::Vector;
    S.MaskReg = Want::OptMask;
    S.IsMemory = true;
    return S;
  case Opcode::VScatter:
    S.Src1 = Want::Scalar;
    S.Src2 = Want::Vector;
    S.Src3 = Want::Vector;
    S.MaskReg = Want::OptMask;
    S.IsMemory = true;
    return S;

  case Opcode::VMovFF:
    S.Dst = Want::Vector;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::OptScalar;
    S.MaskReg = Want::Mask;
    S.IsMemory = true;
    S.MaskInOut = true;
    return S;
  case Opcode::VGatherFF:
    S.Dst = Want::Vector;
    S.Src1 = Want::Scalar;
    S.Src2 = Want::Vector;
    S.MaskReg = Want::Mask;
    S.IsMemory = true;
    S.MaskInOut = true;
    return S;
  case Opcode::VSlctLast:
    S.Dst = Want::Vector;
    S.Src1 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::VConflictM:
    S.Dst = Want::Mask;
    S.Src1 = Want::Vector;
    S.Src2 = Want::Vector;
    S.MaskReg = Want::OptMask;
    return S;
  case Opcode::KFtmExc:
  case Opcode::KFtmInc:
    S.Dst = Want::Mask;
    S.Src1 = Want::Mask; // k_stop
    S.MaskReg = Want::OptMask;
    return S;

  case Opcode::KMov:
  case Opcode::KNot:
    S.Dst = Want::Mask;
    S.Src1 = Want::Mask;
    return S;
  case Opcode::KSet:
    S.Dst = Want::Mask;
    return S;
  case Opcode::KAnd:
  case Opcode::KOr:
  case Opcode::KXor:
  case Opcode::KAndN:
    S.Dst = Want::Mask;
    S.Src1 = Want::Mask;
    S.Src2 = Want::Mask;
    return S;
  case Opcode::KTest:
  case Opcode::KPopcnt:
    S.Dst = Want::Scalar;
    S.Src1 = Want::Mask;
    return S;
  case Opcode::KWhileLT:
    S.Dst = Want::Mask;
    S.Src1 = Want::Scalar; // induction value
    S.Src2 = Want::Scalar; // bound
    return S;
  }
  return S; // unreachable; covered switch
}

const char *wantName(Want W) {
  switch (W) {
  case Want::None:
    return "no register";
  case Want::Scalar:
  case Want::OptScalar:
    return "a scalar register";
  case Want::Vector:
  case Want::OptVector:
    return "a vector register";
  case Want::Mask:
  case Want::OptMask:
    return "a mask register";
  }
  return "?";
}

bool classMatches(Want W, const Reg &R) {
  switch (W) {
  case Want::None:
    return !R.isValid();
  case Want::Scalar:
    return R.isScalar();
  case Want::Vector:
    return R.isVector();
  case Want::Mask:
    return R.isMask();
  case Want::OptScalar:
    return !R.isValid() || R.isScalar();
  case Want::OptVector:
    return !R.isValid() || R.isVector();
  case Want::OptMask:
    return !R.isValid() || R.isMask();
  }
  return false;
}

bool indexInRange(const Reg &R) {
  switch (R.Class) {
  case RegClass::None:
    return true;
  case RegClass::Scalar:
    return R.Index < NumScalarRegs;
  case RegClass::Vector:
    return R.Index < NumVectorRegs;
  case RegClass::Mask:
    return R.Index < NumMaskRegs;
  }
  return false;
}

} // namespace

bool driver::verificationEnabled() {
  static const bool Cached = [] {
    const char *Env = envValue("FLEXVEC_VERIFY");
    if (!Env) {
#ifndef NDEBUG
      return true;
#else
      return false;
#endif
    }
    if (std::strcmp(Env, "0") != 0 && std::strcmp(Env, "1") != 0)
      rejectEnv("FLEXVEC_VERIFY", Env, "0 or 1");
    return Env[0] == '1';
  }();
  return Cached;
}

std::vector<std::string> driver::verifyProgram(const Program &Prog) {
  std::vector<std::string> Errors;
  auto Fail = [&](size_t Idx, const Instruction &I, std::string Why) {
    Errors.push_back("instr " + std::to_string(Idx) + " `" + I.str() +
                     "`: " + std::move(Why));
  };

  if (Prog.empty()) {
    Errors.push_back("program is empty");
    return Errors;
  }

  bool SawHalt = false;
  for (size_t Idx = 0; Idx < Prog.size(); ++Idx) {
    const Instruction &I = Prog[Idx];
    OperandSpec Spec = specFor(I.Op);

    struct Slot {
      const char *Name;
      const Reg &R;
      Want W;
    } Slots[] = {
        {"Dst", I.Dst, Spec.Dst},         {"Src1", I.Src1, Spec.Src1},
        {"Src2", I.Src2, Spec.Src2},      {"Src3", I.Src3, Spec.Src3},
        {"MaskReg", I.MaskReg, Spec.MaskReg},
    };
    for (const Slot &S : Slots) {
      if (!classMatches(S.W, S.R))
        Fail(Idx, I,
             std::string(S.Name) + " must be " + wantName(S.W) + ", got " +
                 (S.R.isValid() ? S.R.str() : std::string("none")));
      if (!indexInRange(S.R))
        Fail(Idx, I, std::string(S.Name) + " register index out of range");
    }

    // k0 reads as all-ones but is not writable — a mask-producing op
    // targeting it silently loses its result.
    if (I.Dst.isMask() && I.Dst.Index == 0)
      Fail(Idx, I, "writes k0, which is hard-wired to all-ones");
    if (Spec.MaskInOut && I.MaskReg.isMask() && I.MaskReg.Index == 0)
      Fail(Idx, I, "first-faulting mask operand is in/out and cannot be k0");

    if (Spec.NeedsTarget) {
      if (I.Target < 0 || static_cast<size_t>(I.Target) >= Prog.size())
        Fail(Idx, I, "branch target " + std::to_string(I.Target) +
                         " is outside the program");
    } else if (I.Target != NoTarget) {
      Fail(Idx, I, "non-branch carries a branch target");
    }

    if (Spec.IsMemory && I.Scale != 1 && I.Scale != 2 && I.Scale != 4 &&
        I.Scale != 8)
      Fail(Idx, I, "memory scale must be 1, 2, 4, or 8");

    SawHalt |= I.Op == Opcode::Halt;
  }

  if (!SawHalt)
    Errors.push_back("program has no Halt");
  const Instruction &Last = Prog[Prog.size() - 1];
  if (Last.Op != Opcode::Halt && Last.Op != Opcode::Jmp)
    Errors.push_back("program can fall off the end (last instruction is `" +
                     Last.str() + "`)");
  return Errors;
}
