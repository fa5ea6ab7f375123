//===- Plan.cpp - Seeded fault plans ---------------------------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/harness/Plan.h"

#include "promises/support/Rng.h"
#include "promises/support/StrUtil.h"

#include <algorithm>
#include <functional>

using namespace promises;
using namespace promises::harness;
using sim::Time;

uint64_t harness::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t X = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// Profiles
//===----------------------------------------------------------------------===//

const ChaosProfile &ChaosProfile::crashes() {
  static const ChaosProfile P = [] {
    ChaosProfile X;
    X.Name = "crashes";
    X.CrashWeight = 0.7;
    X.ShutdownWeight = 0.3;
    X.MinOutage = sim::msec(15);
    X.MaxOutage = sim::msec(80);
    return X;
  }();
  return P;
}

const ChaosProfile &ChaosProfile::partitions() {
  static const ChaosProfile P = [] {
    ChaosProfile X;
    X.Name = "partitions";
    X.PartitionWeight = 1.0;
    X.MinOutage = sim::msec(10);
    X.MaxOutage = sim::msec(60);
    return X;
  }();
  return P;
}

const ChaosProfile &ChaosProfile::loss() {
  static const ChaosProfile P = [] {
    ChaosProfile X;
    X.Name = "loss";
    X.LossBurstWeight = 1.0;
    X.MinGap = sim::msec(6);
    X.MaxGap = sim::msec(30);
    X.MinOutage = sim::msec(10);
    X.MaxOutage = sim::msec(50);
    X.BaseLoss = 0.05;
    X.BaseJitter = sim::msec(1);
    return X;
  }();
  return P;
}

const ChaosProfile &ChaosProfile::mixed() {
  static const ChaosProfile P = [] {
    ChaosProfile X;
    X.Name = "mixed";
    X.CrashWeight = 0.3;
    X.PartitionWeight = 0.3;
    X.LossBurstWeight = 0.25;
    X.ShutdownWeight = 0.15;
    return X;
  }();
  return P;
}

const ChaosProfile *ChaosProfile::byName(std::string_view Name) {
  for (const ChaosProfile *P :
       {&crashes(), &partitions(), &loss(), &mixed()})
    if (P->Name == Name)
      return P;
  return nullptr;
}

std::vector<std::string> ChaosProfile::names() {
  return {crashes().Name, partitions().Name, loss().Name, mixed().Name};
}

//===----------------------------------------------------------------------===//
// Plan generation
//===----------------------------------------------------------------------===//

std::string harness::formatAction(const ChaosAction &A) {
  double Ms = static_cast<double>(A.At) / 1e6;
  switch (A.K) {
  case ChaosAction::Kind::CrashNode:
    return strprintf("%8.2fms crash srv%u", Ms, A.Server);
  case ChaosAction::Kind::RestartNode:
    return strprintf("%8.2fms restart srv%u", Ms, A.Server);
  case ChaosAction::Kind::TransportShutdown:
    return strprintf("%8.2fms shutdown srv%u transport", Ms, A.Server);
  case ChaosAction::Kind::ServerReincarnate:
    return strprintf("%8.2fms reincarnate srv%u", Ms, A.Server);
  case ChaosAction::Kind::PartitionLink:
    return strprintf("%8.2fms partition cli%u <-> srv%u", Ms, A.Client,
                     A.Server);
  case ChaosAction::Kind::HealLink:
    return strprintf("%8.2fms heal cli%u <-> srv%u", Ms, A.Client, A.Server);
  case ChaosAction::Kind::LossBurstStart:
    return strprintf("%8.2fms loss burst cli%u <-> srv%u rate %.2f", Ms,
                     A.Client, A.Server, A.Rate);
  case ChaosAction::Kind::LossBurstEnd:
    return strprintf("%8.2fms loss burst end cli%u <-> srv%u", Ms, A.Client,
                     A.Server);
  case ChaosAction::Kind::CorruptBurstStart:
    return strprintf("%8.2fms corrupt burst rate %.2f", Ms, A.Rate);
  case ChaosAction::Kind::CorruptBurstEnd:
    return strprintf("%8.2fms corrupt burst end", Ms);
  }
  return "?";
}

ChaosPlan ChaosPlan::generate(const ChaosProfile &P, const PlanShape &Sh) {
  // Corruption bursts: their weight in the mix, and the rate they raise.
  constexpr double CorruptBurstWeight = 0.3;
  constexpr double BurstCorruptRate = 0.08;

  ChaosPlan Plan;
  Plan.Seed = Sh.Seed;
  Plan.Profile = P.Name;
  Rng R(mixSeed(Sh.Seed, std::hash<std::string>{}(P.Name)));

  using K = ChaosAction::Kind;
  // Corruption bursts join the mix only for the wire-integrity workload,
  // so plans for runs without --corrupt are unchanged.
  double CorruptWeight = Sh.Corrupt ? CorruptBurstWeight : 0;
  double Total = P.CrashWeight + P.PartitionWeight + P.LossBurstWeight +
                 P.ShutdownWeight + CorruptWeight;
  Time T = static_cast<Time>(R.between(P.MinGap, P.MaxGap));
  while (Total > 0 && T < Sh.Horizon) {
    Time Outage = static_cast<Time>(R.between(P.MinOutage, P.MaxOutage));
    auto Srv = static_cast<uint32_t>(R.below(Sh.Servers));
    auto Cli = static_cast<uint32_t>(R.below(Sh.Clients));
    double Pick = R.unit() * Total;
    if ((Pick -= P.CrashWeight) < 0) {
      Plan.Actions.push_back({T, K::CrashNode, Srv, 0, 0});
      Plan.Actions.push_back({T + Outage, K::RestartNode, Srv, 0, 0});
    } else if ((Pick -= P.PartitionWeight) < 0) {
      Plan.Actions.push_back({T, K::PartitionLink, Srv, Cli, 0});
      Plan.Actions.push_back({T + Outage, K::HealLink, Srv, Cli, 0});
    } else if ((Pick -= P.LossBurstWeight) < 0) {
      Plan.Actions.push_back({T, K::LossBurstStart, Srv, Cli, P.BurstLoss});
      Plan.Actions.push_back({T + Outage, K::LossBurstEnd, Srv, Cli,
                              P.BaseLoss});
    } else if (CorruptWeight > 0 && (Pick -= P.ShutdownWeight) >= 0) {
      Plan.Actions.push_back({T, K::CorruptBurstStart, 0, 0,
                              BurstCorruptRate});
      Plan.Actions.push_back({T + Outage, K::CorruptBurstEnd, 0, 0,
                              AmbientCorruptRate});
    } else {
      Plan.Actions.push_back({T, K::TransportShutdown, Srv, 0, 0});
      Plan.Actions.push_back({T + Outage, K::ServerReincarnate, Srv, 0, 0});
    }
    T += static_cast<Time>(R.between(P.MinGap, P.MaxGap));
  }

  // Cleanup phase: after the injection window (plus the longest possible
  // outstanding outage) everything heals, so the workload always drains.
  Time End = Sh.Horizon + P.MaxOutage + sim::msec(1);
  for (uint32_t S = 0; S != Sh.Servers; ++S) {
    Plan.Actions.push_back({End, K::RestartNode, S, 0, 0});
    Plan.Actions.push_back({End, K::ServerReincarnate, S, 0, 0});
  }
  for (uint32_t S = 0; S != Sh.Servers; ++S)
    for (uint32_t C = 0; C != Sh.Clients; ++C) {
      Plan.Actions.push_back({End, K::HealLink, S, C, 0});
      Plan.Actions.push_back({End, K::LossBurstEnd, S, C, P.BaseLoss});
    }
  if (Sh.Corrupt)
    Plan.Actions.push_back({End, K::CorruptBurstEnd, 0, 0,
                            AmbientCorruptRate});

  std::stable_sort(Plan.Actions.begin(), Plan.Actions.end(),
                   [](const ChaosAction &A, const ChaosAction &B) {
                     return A.At < B.At;
                   });
  return Plan;
}
