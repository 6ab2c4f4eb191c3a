//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

Tracer::Scope::Scope(Tracer &T, const char *Name, uint64_t Item,
                     uint32_t Parent, const char *Tag)
    : T(T) {
  S.Id = T.nextId();
  S.Parent = Parent;
  S.Name = Name;
  S.Tag = Tag;
  S.Item = Item;
  S.StartNs = nowNs();
}

Tracer::Scope::~Scope() {
  S.EndNs = nowNs();
  T.record(std::move(S));
}

uint32_t Tracer::nextId() {
  std::lock_guard<std::mutex> Lock(Mu);
  return ++LastId;
}

void Tracer::record(Span S) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Lanes.try_emplace(std::this_thread::get_id(),
                              static_cast<unsigned>(Lanes.size()))
                .first;
  S.Lane = It->second;
  Spans.push_back(std::move(S));
}

void Tracer::addFolded(const char *Name, const char *Tag, uint64_t Item,
                       uint32_t Parent, int64_t ParentStartNs, int64_t Ns,
                       uint64_t Calls) {
  if (!Calls)
    return;
  Span S;
  S.Id = nextId();
  S.Parent = Parent;
  S.Name = Name;
  S.Tag = Tag;
  S.Item = Item;
  S.StartNs = ParentStartNs;
  S.EndNs = ParentStartNs + Ns;
  S.Calls = Calls;
  record(std::move(S));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

std::vector<int64_t> perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::unordered_map<uint32_t, size_t> ById;
  for (size_t I = 0; I < Spans.size(); ++I)
    ById[Spans[I].Id] = I;
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto It = ById.find(Spans[I].Parent);
    if (Spans[I].Parent && It != ById.end())
      Children[It->second].push_back(I);
  }

  std::vector<int64_t> Self(Spans.size());
  for (size_t P = 0; P < Spans.size(); ++P) {
    const Span &Par = Spans[P];
    int64_t Folded = 0;
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (size_t C : Children[P]) {
      const Span &Ch = Spans[C];
      if (Ch.folded()) {
        Folded += Ch.durationNs();
        continue;
      }
      int64_t Lo = std::max(Ch.StartNs, Par.StartNs);
      int64_t Hi = std::min(Ch.EndNs, Par.EndNs);
      if (Lo < Hi)
        Iv.emplace_back(Lo, Hi);
    }
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, CurLo = 0, CurHi = 0;
    bool Open = false;
    for (const auto &[Lo, Hi] : Iv) {
      if (Open && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[P] = Par.durationNs() - Covered - Folded;
  }
  return Self;
}

std::map<std::string, double>
perfbench::selfMsByName(const std::vector<Span> &Spans,
                        const std::vector<int64_t> &SelfNs, bool ByTag) {
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::string Key = Spans[I].Name;
    if (ByTag && *Spans[I].Tag)
      (Key += ".") += Spans[I].Tag;
    Out[Key] += static_cast<double>(SelfNs[I]) / 1e6;
  }
  return Out;
}

bool perfbench::writeSpans(const std::string &Path,
                           const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : Spans)
    std::fprintf(F,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"tag\":\"%s\","
                 "\"item\":%llu,\"lane\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"calls\":%llu}\n",
                 S.Id, S.Parent, S.Name, S.Tag,
                 static_cast<unsigned long long>(S.Item), S.Lane,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<unsigned long long>(S.Calls));
  return std::fclose(F) == 0;
}
