/**
 * @file
 * griffin-lint: repo-specific determinism and serialization invariants
 * as machine-checked rules.
 *
 * The reproduction's headline claims — byte-identical parallel vs
 * serial sweeps, thread-count-invariant rows, pinned bench/baselines/
 * diffs — all rest on source-level invariants that used to live in
 * comments.  This checker makes them findings:
 *
 *   wall-clock
 *     No wall-clock reads (std::chrono::system_clock, time(),
 *     gettimeofday, localtime/gmtime/strftime, clock()) anywhere a
 *     result byte could depend on them.  Monotonic steady_clock (and
 *     its wrapper monotonicNowNs()) is fine: it only ever feeds
 *     timing telemetry, never result rows.
 *
 *   banned-random
 *     No rand()/srand()/random()/drand48-family and no std::hash.
 *     Every stochastic draw must flow through common/rng.hh (seeded
 *     mt19937_64, forked per layer) and every seed derivation through
 *     Rng::mixSeed — std::hash is implementation-defined and would
 *     silently unpin results across standard libraries (the exact bug
 *     the "mixSeed, not std::hash" note in griffin/accelerator.cc
 *     records).
 *
 *   unordered-sink-iteration
 *     No range-for over a std::unordered_map/std::unordered_set whose
 *     body feeds a ResultSink / serializer / rendered table without an
 *     intervening sort.  Unordered iteration order is
 *     implementation-defined; bytes that depend on it break every
 *     baseline diff.  A sort( within the loop body or the five lines
 *     above it is accepted as the ordering step.
 *
 *   intrinsics-outside-simd
 *     No raw SIMD intrinsics (immintrin.h / arm_neon.h-family
 *     includes, _mm_* / _mm256_* / _mm512_* / __builtin_ia32_* calls)
 *     outside src/simd/.  The SIMD layer owns the dispatched
 *     KernelTable and its byte-exactness proof against the scalar
 *     reference; an intrinsic open-coded anywhere else escapes both
 *     the GRIFFIN_FORCE_SCALAR knob and the equivalence tests.  The
 *     rule is path-aware: files under src/simd/ are exempt.
 *
 *   pointer-keyed-map
 *     No raw-pointer-keyed maps (e.g. unordered_map<const char *, V>
 *     keyed by string literal address): literal addresses are not
 *     stable across translation units or inlining decisions, so such
 *     maps silently split or merge entries depending on the build.
 *     Key by content (std::string_view / std::string) instead.
 *
 *   uninit-serialized-field
 *     Every scalar field of a struct that reaches an encoder — it
 *     declares a serialize() member, or carries a
 *     "// griffin-lint: serialized" marker — must have a default
 *     initializer.  An uninitialized padding byte or field that lands
 *     in a JSONL row or a metrics line is a nondeterminism bug ASan
 *     cannot see.
 *
 * Suppressions: a finding is allowlisted by a comment on the same
 * line, or a comment line directly above the offending line, of the
 * form (no space before the colon; the placeholders are spaced here
 * only so the linter does not parse its own documentation):
 *
 *     // griffin-lint : allow(rule[, rule...]) justification
 *
 * The justification is mandatory, unknown rule names are findings
 * (malformed-suppression), and a suppression that matches no finding
 * is itself a finding (unused-suppression) so stale allowlists cannot
 * accumulate.
 */

#ifndef GRIFFIN_TOOLS_GRIFFIN_LINT_LINT_HH
#define GRIFFIN_TOOLS_GRIFFIN_LINT_LINT_HH

#include <string>
#include <vector>

namespace griffin {
namespace lint {

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

/** Every enforced rule name (sorted), for --list-rules and allow()
 *  validation.  Excludes the meta findings (malformed-suppression,
 *  unused-suppression), which cannot be suppressed. */
const std::vector<std::string> &ruleNames();

/**
 * Lint one in-memory translation unit.  `path` labels the findings;
 * nothing is read from disk.  Findings come back sorted by
 * (line, rule).
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text);

/** Lint one file from disk (empty result + `error` set on I/O
 *  failure). */
std::vector<Finding> lintFile(const std::string &path,
                              std::string &error);

/**
 * Expand files and directories into the sorted list of lintable
 * sources (.cc/.hh/.cpp/.hpp).  Directories are walked recursively;
 * any path containing one of `excludes` as a substring is skipped.
 * Explicitly listed files are never excluded.
 */
std::vector<std::string>
collectSources(const std::vector<std::string> &paths,
               const std::vector<std::string> &excludes,
               std::string &error);

/** One finding as "file:line: [rule] message". */
std::string formatFinding(const Finding &finding);

} // namespace lint
} // namespace griffin

#endif // GRIFFIN_TOOLS_GRIFFIN_LINT_LINT_HH
