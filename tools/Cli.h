//===- Cli.h - Flag tables and the seed sweep for the tools ----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the command-line tools and the bench drivers share. A tool
/// describes its flags once, as a table whose rows parse the command line
/// strictly (a value must parse whole and lie in its range), print the
/// usage text, and list the valid flags after an unknown one. chaossim and
/// loadsim also share the seed sweep: the determinism double-run and the
/// FAIL/ok/replay lines. Every gated bench writes its result as one bench
/// record, the shape tools/check_bench.py compares.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_TOOLS_CLI_H
#define PROMISES_TOOLS_CLI_H

#include "promises/support/StrUtil.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace promises::cli {

/// One flag: a row of the tool's table.
struct Flag {
  std::string Name; ///< "--seed".
  std::string Arg;  ///< Value placeholder ("S"); empty for a switch.
  std::string Help; ///< Usage text; '\n' continues on an indented line.
  /// Stores the value (nullptr for a switch); returns an error message,
  /// or "" on success.
  std::function<std::string(const char *Value)> Set;
};

using Table = std::vector<Flag>;

/// A switch: its presence sets \p Out.
inline Flag toggle(std::string Name, std::string Help, bool &Out) {
  return {std::move(Name), "", std::move(Help), [&Out](const char *) {
            Out = true;
            return std::string();
          }};
}

/// Parses \p V, the value of flag \p Name, whole into \p Out and checks it
/// lies in [Min, Max]: for uint64_t decimal digits only (a sign, trailing
/// junk or an overflow is an error), for double a finite number. Returns
/// the error message, or "".
template <class T>
std::string parseValue(const std::string &Name, const char *V, T Min, T Max,
                       T &Out) {
  const char *End = V + std::strlen(V);
  auto [P, Ec] = std::from_chars(V, End, Out);
  if (V == End || Ec != std::errc() || P != End)
    return strprintf("%s wants %s, got '%s'", Name.c_str(),
                     std::is_integral_v<T> ? "an unsigned integer"
                                           : "a number",
                     V);
  auto Show = [](T X) {
    if constexpr (std::is_integral_v<T>)
      return std::to_string(X);
    else
      return strprintf("%g", X);
  };
  if (!(Out >= Min && Out <= Max)) // Also rejects nan.
    return strprintf("%s must be in [%s,%s], got %s", Name.c_str(),
                     Show(Min).c_str(), Show(Max).c_str(), V);
  return "";
}

/// An unsigned integer in [Min, Max].
template <class T>
Flag integer(std::string Name, std::string Arg, std::string Help, T &Out,
             uint64_t Min = 0,
             uint64_t Max = std::numeric_limits<T>::max()) {
  std::string N = Name;
  return {std::move(Name), std::move(Arg), std::move(Help),
          [&Out, N, Min, Max](const char *V) {
            uint64_t X = 0;
            std::string Err = parseValue(N, V, Min, Max, X);
            if (Err.empty())
              Out = static_cast<T>(X);
            return Err;
          }};
}

/// A finite number in [Min, Max].
inline Flag number(std::string Name, std::string Arg, std::string Help,
                   double &Out, double Min, double Max) {
  std::string N = Name;
  return {std::move(Name), std::move(Arg), std::move(Help),
          [&Out, N, Min, Max](const char *V) {
            return parseValue(N, V, Min, Max, Out);
          }};
}

/// Any string.
inline Flag text(std::string Name, std::string Arg, std::string Help,
                 std::string &Out) {
  return {std::move(Name), std::move(Arg), std::move(Help),
          [&Out](const char *V) {
            Out = V;
            return std::string();
          }};
}

/// One of \p Choices: the usage text lists them before \p Help, and the
/// error names them all.
inline Flag choice(std::string Name, std::string Arg, std::string Help,
                   std::string &Out, std::vector<std::string> Choices) {
  std::string What = Name.substr(2), Bars, Commas;
  for (const std::string &C : Choices) {
    Bars += (Bars.empty() ? "" : "|") + C;
    Commas += (Commas.empty() ? "" : ", ") + C;
  }
  return {std::move(Name), std::move(Arg), Bars + Help,
          [&Out, What, Choices, Commas](const char *V) -> std::string {
            if (std::find(Choices.begin(), Choices.end(), V) == Choices.end())
              return strprintf("unknown %s %s (valid: %s)", What.c_str(), V,
                               Commas.c_str());
            Out = V;
            return "";
          }};
}

/// The usage text the table describes.
inline void usage(const char *Argv0, const Table &T) {
  size_t Width = 0;
  for (const Flag &F : T)
    Width = std::max(Width, F.Name.size() + 1 + F.Arg.size());
  std::fprintf(stderr, "usage: %s [options]\n", Argv0);
  for (const Flag &F : T) {
    std::string Head = F.Arg.empty() ? F.Name : F.Name + " " + F.Arg;
    std::string Pad(Width + 4, ' ');
    std::string Line = "  " + Head + Pad.substr(Head.size() + 2);
    for (char C : F.Help)
      Line += C == '\n' ? "\n" + Pad : std::string(1, C);
    std::fprintf(stderr, "%s\n", Line.c_str());
  }
}

/// Parses argv strictly against \p T. On an unknown flag, a missing value
/// or a bad value prints the error and returns false.
inline bool parse(int Argc, char **Argv, const Table &T) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto F = std::find_if(T.begin(), T.end(),
                          [&](const Flag &R) { return R.Name == A; });
    if (F == T.end()) {
      std::string Valid;
      for (const Flag &R : T)
        Valid += (Valid.empty() ? "" : " ") + R.Name;
      std::fprintf(stderr, "error: unknown flag %s (valid: %s)\n", A,
                   Valid.c_str());
      return false;
    }
    const char *V = nullptr;
    if (!F->Arg.empty()) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", A);
        return false;
      }
      V = Argv[++I];
    }
    if (std::string Err = F->Set(V); !Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return false;
    }
  }
  return true;
}

/// \p V as a JSON literal: true/false, an integer, a number in its
/// shortest round-trip form (null when not finite: JSON has no inf or nan,
/// and the gate rejects null), or a quoted string.
template <class T> std::string json(const T &V) {
  if constexpr (std::is_same_v<T, bool>) {
    return V ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(V);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(V))
      return "null";
    char Buf[32];
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  } else {
    std::string Out = "\"";
    for (char C : std::string_view(V)) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += static_cast<unsigned char>(C) < 0x20 ? ' ' : C;
    }
    return Out + '"';
  }
}

/// Which way a metric improves.
enum Better { Lower, Higher };

/// A metric's bound when the gate only reports it.
inline constexpr std::nullopt_t ReportOnly = std::nullopt;

/// One number of a bench record. The gate holds a fresh value to the
/// committed baseline's: with Lower better it may grow to
/// base * (1 + Bound), with Higher better shrink to base / (1 + Bound).
/// Bound 0 makes a count or a correctness bit exact.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  Better Dir;
  std::optional<double> Bound;
};

/// One entry of a record's config: a setting that shaped the run. The
/// gate compares only records whose configs are equal.
struct Setting {
  std::string Key, Json;
  template <class T>
  Setting(std::string K, const T &V) : Key(std::move(K)), Json(json(V)) {}
};

/// The machine a record was measured on: the CPU model and how many
/// logical CPUs it has.
inline std::string host() {
  char Model[256] = "unknown CPU", Line[256];
  if (std::FILE *F = std::fopen("/proc/cpuinfo", "r")) {
    while (std::fgets(Line, sizeof(Line), F) &&
           std::sscanf(Line, "model name : %255[^\n]", Model) != 1) {
    }
    std::fclose(F);
  }
  return strprintf("%s, %u logical CPUs", Model,
                   std::thread::hardware_concurrency());
}

/// The one bench record every gated bench writes:
///
///   {"bench", "pr", "host", "config": {...},
///    "metrics": [{"name", "value", "unit", "better", "bound"}, ...]}
///
/// with one metric per line, so a committed baseline diffs by metric.
inline std::string benchRecord(const std::string &Bench, int Pr,
                               const std::vector<Setting> &Config,
                               const std::vector<Metric> &Metrics) {
  std::string Out = strprintf("{\"bench\": %s, \"pr\": %d, \"host\": %s,\n"
                              " \"config\": {",
                              json(Bench).c_str(), Pr, json(host()).c_str());
  for (size_t I = 0; I != Config.size(); ++I)
    Out += strprintf("%s%s: %s", I ? ", " : "",
                     json(Config[I].Key).c_str(), Config[I].Json.c_str());
  Out += "},\n \"metrics\": [";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += strprintf("%s\n  {\"name\": %s, \"value\": %s, \"unit\": %s, "
                     "\"better\": \"%s\", \"bound\": %s}",
                     I ? "," : "", json(M.Name).c_str(),
                     json(M.Value).c_str(), json(M.Unit).c_str(),
                     M.Dir == Lower ? "lower" : "higher",
                     M.Bound ? json(*M.Bound).c_str() : "null");
  }
  return Out + "]}\n";
}

/// Writes \p Record to \p Path; says why and returns false if it cannot.
inline bool writeRecord(const std::string &Path, const std::string &Record) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  bool Ok = F && std::fputs(Record.c_str(), F) >= 0;
  if (F && std::fclose(F) != 0)
    Ok = false;
  if (!Ok)
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
  return Ok;
}

/// What a seed sweep is told on the command line.
struct SweepOptions {
  uint64_t Seed = 1;
  uint64_t Seeds = 1; ///< Consecutive seeds starting at Seed.
  bool NoReplay = false; ///< Skip the determinism double-run.
  bool Quiet = false;
};

/// The sweep's rows: --seed, --seeds, --no-replay, --quiet.
inline Table sweepFlags(SweepOptions &SW) {
  return {integer("--seed", "S", "first seed (default 1)", SW.Seed),
          integer("--seeds", "N", "run N consecutive seeds (default 1)",
                  SW.Seeds, 1),
          toggle("--no-replay", "skip the determinism double-run",
                 SW.NoReplay),
          toggle("--quiet", "print failures and the final line only",
                 SW.Quiet)};
}

/// Runs the sweep's seeds: Prepare(Seed) gives a seed's options, Run its
/// report. Unless --no-replay, a clean seed runs twice and must replay to
/// the same trace. Prints each failing seed with its violations and the
/// Replay command line, each passing seed unless --quiet, and then
/// "N/M seeds ok [Name]". After(Options, Report), when given, runs once
/// per seed after its lines; a nonzero result ends the sweep as its exit
/// code. Returns 0 if every seed passed, else 1.
template <class Opts, class Rep>
int sweep(const SweepOptions &SW, const std::string &Name,
          const std::function<Opts(uint64_t Seed)> &Prepare,
          const std::function<Rep(const Opts &)> &Run,
          const std::function<std::string(const Opts &)> &Replay,
          const std::function<int(const Opts &, const Rep &)> &After = {}) {
  uint64_t Failures = 0;
  for (uint64_t S = SW.Seed; S != SW.Seed + SW.Seeds; ++S) {
    Opts O = Prepare(S);
    Rep R = Run(O);
    bool Bad = !R.ok();
    if (!Bad && !SW.NoReplay) {
      Rep R2 = Run(O);
      if (R2.TraceHash != R.TraceHash || R2.TraceEvents != R.TraceEvents ||
          !R2.ok()) {
        Bad = true;
        R.Violations.push_back(strprintf(
            "nondeterministic replay: trace %llu@%016llx vs %llu@%016llx",
            (unsigned long long)R.TraceEvents,
            (unsigned long long)R.TraceHash,
            (unsigned long long)R2.TraceEvents,
            (unsigned long long)R2.TraceHash));
        for (const std::string &V : R2.Violations)
          R.Violations.push_back("replay: " + V);
      }
    }

    if (Bad) {
      ++Failures;
      std::printf("seed %llu [%s]: FAIL %s\n", (unsigned long long)S,
                  Name.c_str(), R.summary().c_str());
      for (const std::string &V : R.Violations)
        std::printf("  violation: %s\n", V.c_str());
      std::printf("  replay: %s\n", Replay(O).c_str());
    } else if (!SW.Quiet) {
      std::printf("seed %llu [%s]: ok %s\n", (unsigned long long)S,
                  Name.c_str(), R.summary().c_str());
    }
    if (After)
      if (int Code = After(O, R))
        return Code;
  }

  std::printf("%llu/%llu seeds ok [%s]\n",
              (unsigned long long)(SW.Seeds - Failures),
              (unsigned long long)SW.Seeds, Name.c_str());
  return Failures == 0 ? 0 : 1;
}

} // namespace promises::cli

#endif // PROMISES_TOOLS_CLI_H
