//===- rtm/Transaction.cpp ------------------------------------------------===//

#include "rtm/Transaction.h"

#include "obs/Metrics.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace flexvec;
using namespace flexvec::rtm;

namespace {
constexpr uint64_t LineBytes = 64;

/// Spreads consecutive line numbers across the table (Fibonacci hashing).
size_t lineHash(uint64_t Line) {
  uint64_t H = Line * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(H ^ (H >> 32));
}
} // namespace

TxFaultHook::~TxFaultHook() = default;

const char *rtm::abortReasonName(AbortReason R) {
  switch (R) {
  case AbortReason::None:
    return "none";
  case AbortReason::Explicit:
    return "explicit";
  case AbortReason::Fault:
    return "fault";
  case AbortReason::Capacity:
    return "capacity";
  case AbortReason::Conflict:
    return "conflict";
  case AbortReason::Spurious:
    return "spurious";
  case AbortReason::Nested:
    return "nested";
  }
  unreachable("unknown abort reason");
}

bool TransactionManager::begin() {
  if (Active) {
    // A nested XBEGIN is an architectural abort of the running
    // transaction (Intel RTM aborts on unsupported nesting depth), not a
    // process-fatal condition: roll back and let the machine redirect to
    // the abort handler.
    abort(AbortReason::Nested);
    return false;
  }
  Active = true;
  clearBookkeeping();
  ++Stats.Begins;
  return true;
}

bool TransactionManager::commit() {
  assert(Active && "commit outside a transaction");
  if (Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/true);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      abort(Injected);
      return false;
    }
  }
  Active = false;
  clearBookkeeping();
  ++Stats.Commits;
  return true;
}

void TransactionManager::abort(AbortReason Reason) {
  assert(Active && "abort outside a transaction");
  assert(Reason != AbortReason::None && "abort requires a reason");
  // Undo tentative writes in reverse order. The rollback uses the debug
  // write path: undo targets were mapped and writable when logged, and an
  // armed fault injector must not be able to corrupt a rollback (real
  // hardware discards the speculative cache lines unconditionally).
  for (auto It = UndoLog.rbegin(); It != UndoLog.rend(); ++It) {
    mem::AccessResult R = M.poke(It->Addr, UndoBytes.data() + It->Off,
                                 It->Size);
    if (!R.Ok)
      fatalError("rollback write faulted; undo log is corrupt");
  }
  Active = false;
  clearBookkeeping();
  ++Stats.Aborts;
  LastAbort = Reason;
  switch (Reason) {
  case AbortReason::Explicit:
    ++Stats.AbortsExplicit;
    break;
  case AbortReason::Fault:
    ++Stats.AbortsByFault;
    break;
  case AbortReason::Capacity:
    ++Stats.AbortsByCapacity;
    break;
  case AbortReason::Conflict:
    ++Stats.AbortsByConflict;
    break;
  case AbortReason::Spurious:
    ++Stats.AbortsSpurious;
    break;
  case AbortReason::Nested:
    ++Stats.AbortsNested;
    break;
  case AbortReason::None:
    break;
  }
}

void TransactionManager::clearBookkeeping() {
  UndoLog.clear();
  UndoBytes.clear();
  ReadSetLines.clear();
  WriteSetLines.clear();
}

void TransactionManager::LineSet::insert(uint64_t Line) {
  if ((Count + 1) * 2 > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  for (size_t I = lineHash(Line) & Mask;; I = (I + 1) & Mask) {
    Slot &S = Slots[I];
    if (S.Gen != Gen) {
      S.Line = Line;
      S.Gen = Gen;
      ++Count;
      return;
    }
    if (S.Line == Line)
      return;
  }
}

void TransactionManager::LineSet::clear() {
  Count = 0;
  if (++Gen == 0) {
    // Stamp wrap-around: unstamp every slot so no stale slot matches.
    for (Slot &S : Slots)
      S.Gen = 0;
    Gen = 1;
  }
}

void TransactionManager::LineSet::grow() {
  std::vector<Slot> Old(std::max<size_t>(Slots.size() * 2, 64));
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (S.Gen != Gen)
      continue;
    size_t I = lineHash(S.Line) & Mask;
    while (Slots[I].Gen == Gen)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

bool TransactionManager::trackFootprint(uint64_t Addr, uint64_t Size,
                                        bool IsWrite) {
  uint64_t First = Addr / LineBytes;
  uint64_t Last = Size ? (Addr + Size - 1) / LineBytes : First;
  for (uint64_t L = First; L <= Last; ++L) {
    if (IsWrite)
      WriteSetLines.insert(L);
    else
      ReadSetLines.insert(L);
  }
  return WriteSetLines.size() <= Limits.MaxWriteSetLines &&
         ReadSetLines.size() <= Limits.MaxReadSetLines;
}

bool TransactionManager::read(uint64_t Addr, void *Out, uint64_t Size,
                              AbortReason &Reason) {
  Reason = AbortReason::None;
  if (Active && Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/false);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      Reason = Injected;
      abort(Reason);
      return false;
    }
  }
  mem::AccessResult R = M.read(Addr, Out, Size);
  if (!Active)
    return R.Ok; // Non-transactional: fault surfaces to the machine.
  if (!R.Ok) {
    Reason = AbortReason::Fault;
    abort(Reason);
    return false;
  }
  if (!trackFootprint(Addr, Size, /*IsWrite=*/false)) {
    Reason = AbortReason::Capacity;
    abort(Reason);
    return false;
  }
  return true;
}

bool TransactionManager::write(uint64_t Addr, const void *Data, uint64_t Size,
                               AbortReason &Reason) {
  Reason = AbortReason::None;
  if (!Active) {
    mem::AccessResult R = M.write(Addr, Data, Size);
    return R.Ok;
  }
  if (Hook) {
    AbortReason Injected = Hook->injectAbort(/*AtCommit=*/false);
    if (Injected != AbortReason::None) {
      ++Stats.InjectedAborts;
      Reason = Injected;
      abort(Reason);
      return false;
    }
  }
  // Log old contents before modifying; a failed read of the old contents is
  // a fault on the write address range.
  UndoRecord Rec{Addr, UndoBytes.size(), static_cast<size_t>(Size)};
  UndoBytes.resize(Rec.Off + Rec.Size);
  mem::AccessResult Old = M.read(Addr, UndoBytes.data() + Rec.Off, Size);
  if (!Old.Ok) {
    Reason = AbortReason::Fault;
    abort(Reason);
    return false;
  }
  mem::AccessResult W = M.write(Addr, Data, Size);
  if (!W.Ok) {
    Reason = AbortReason::Fault;
    abort(Reason);
    return false;
  }
  Stats.BytesLogged += Size;
  UndoLog.push_back(Rec);
  if (!trackFootprint(Addr, Size, /*IsWrite=*/true)) {
    Reason = AbortReason::Capacity;
    abort(Reason);
    return false;
  }
  return true;
}

// --- Metrics export ------------------------------------------------------===//

void rtm::recordMetrics(const TxStats &S, obs::Registry &R) {
  R.counter("rtm.begins").inc(S.Begins);
  R.counter("rtm.commits").inc(S.Commits);
  R.counter("rtm.aborts").inc(S.Aborts);
  R.counter("rtm.aborts.fault").inc(S.AbortsByFault);
  R.counter("rtm.aborts.capacity").inc(S.AbortsByCapacity);
  R.counter("rtm.aborts.explicit").inc(S.AbortsExplicit);
  R.counter("rtm.aborts.conflict").inc(S.AbortsByConflict);
  R.counter("rtm.aborts.spurious").inc(S.AbortsSpurious);
  R.counter("rtm.aborts.nested").inc(S.AbortsNested);
  R.counter("rtm.injected_aborts").inc(S.InjectedAborts);
  R.counter("rtm.bytes_logged").inc(S.BytesLogged);
  if (S.Begins)
    R.gauge("rtm.commit_rate")
        .set(static_cast<double>(S.Commits) / static_cast<double>(S.Begins));
}
