/**
 * @file
 * Argv fuzz of griffin_bench's command line.
 *
 * The command line is griffin_bench's other external input besides
 * grid text (test_grid's GridFuzzDeathTest).  Seeded mutations of
 * `list`, `networks`, `describe fig5` and `run table1 --threads 2` —
 * subcommands, flag names, flag values and experiment names swapped,
 * misspelt, dropped or repeated — each run griffin_bench in a child
 * process of its own, stdout to a file, in a directory of its own.  A
 * case may only succeed (exit 0) or fail as a usage error (exit 2,
 * one `fatal:` line): never a signal, an abort, a run failure or a
 * sanitizer report.  Every case stays cheap: no `--all`, `--threads`
 * at most 4 and table-sized experiments only, so a sanitized build
 * runs all of them in seconds.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace griffin {
namespace {

constexpr int kCases = 200;

const std::vector<std::vector<std::string>> kBases = {
    {"list"},
    {"networks"},
    {"describe", "fig5"},
    {"run", "table1", "--threads", "2"},
};

const std::vector<std::string> kSubcommands = {
    "list", "networks", "describe", "run", "lst", "runn", "RUN",
    "describ", "", "-", "--", "help", "--help", "merge", "perf",
};

/** Experiment and network names; the sweeps among them (fig5, fig8)
 *  are only ever described, never run (see cheap()). */
const std::vector<std::string> kNames = {
    "table1", "table2", "table4", "table5", "table7",
    "ablation_analytic", "fig5", "fig8", "resnet50", "alexnet", "BERT",
    "tabel1", "TABLE1", "nosuch", "", "fig", "table",
};

const std::vector<std::string> kFlags = {
    "--sample", "--rowcap", "--seed", "--lanebias", "--threads",
    "--grid", "--csv", "--json", "--out", "--trace", "--stats",
    "--timings", "--thread", "--samples", "-threads", "---seed", "--",
    "--=1", "--threads=", "--grid=", "--csv=maybe", "--stats=off",
};

/** Flag values: none is a valid --threads count above 4, and none
 *  names a device that fails writes (that is exit 1, see grid_cli). */
const std::vector<std::string> kValues = {
    "", "0", "1", "2", "4", "-1", "1025", "nan", "inf", "-inf",
    "1e308", "1e-320", "0.5", "2.5", "-0", "abc", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "0x10", " 3", "3 ",
    "true", "off", "=", ",", "network=alexnet", "seed=1..3", "nosuch=1",
    "out.jsonl", "out.csv", "out.json", "/", "/nonexistent/dir/x.jsonl",
    "a\tb",
};

/** Sweeps too costly for a fuzz case; `run` never keeps one. */
const std::set<std::string> kSweeps = {
    "fig5", "fig6", "fig7", "fig8", "table3", "table6",
    "ablation_bandwidth", "ablation_memory_peak", "ablation_shuffle",
};

const std::string kAlphabet = "-=.,:0123456789abeflnrstu\xff";

template <typename T>
const T &
pick(const std::vector<T> &from, Rng &rng)
{
    return from[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(from.size()) - 1))];
}

std::size_t
anyIndex(const std::vector<std::string> &args, Rng &rng, bool end_ok)
{
    const auto n = static_cast<std::int64_t>(args.size());
    return static_cast<std::size_t>(rng.uniformInt(0, end_ok ? n : n - 1));
}

/** One random edit: a pool token in, a token out, or a character of
 *  one token changed. */
void
mutateOnce(std::vector<std::string> &args, Rng &rng)
{
    const int op = static_cast<int>(rng.uniformInt(0, 7));
    if (args.empty() && op != 2 && op != 3) {
        args.push_back(pick(kSubcommands, rng));
        return;
    }
    switch (op) {
      case 0:
        args[0] = pick(kSubcommands, rng);
        break;
      case 1:
        args[anyIndex(args, rng, false)] = pick(kNames, rng);
        break;
      case 2: {
        const auto at = args.begin() + static_cast<std::ptrdiff_t>(
                                           anyIndex(args, rng, true));
        if (rng.bernoulli(0.7))
            args.insert(at, {pick(kFlags, rng), pick(kValues, rng)});
        else
            args.insert(at, pick(kFlags, rng));
        break;
      }
      case 3:
        args.insert(args.begin() + static_cast<std::ptrdiff_t>(
                                       anyIndex(args, rng, true)),
                    pick(kNames, rng));
        break;
      case 4:
        args[anyIndex(args, rng, false)] = pick(kValues, rng);
        break;
      case 5: {
        std::string &token = args[anyIndex(args, rng, false)];
        const auto at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(token.size())));
        const char c = kAlphabet[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
        const int edit = static_cast<int>(rng.uniformInt(0, 2));
        if (edit == 0 || at == token.size())
            token.insert(at, 1, c);
        else if (edit == 1)
            token.erase(at, 1);
        else
            token[at] = c;
        break;
      }
      case 6:
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(
                                      anyIndex(args, rng, false)));
        break;
      default: {
        const std::size_t i = anyIndex(args, rng, false);
        const std::string copy = args[i];
        args.insert(args.begin() + static_cast<std::ptrdiff_t>(i), copy);
        break;
      }
    }
}

/** True when `s` is a whole base-10 integer in [lo, hi]. */
bool
intIn(const std::string &s, long long lo, long long hi)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    return *end == '\0' && errno == 0 && v >= lo && v <= hi;
}

/** Keep a case cheap: no --all, at most 4 threads, no sweep run. */
void
cheap(std::vector<std::string> &args)
{
    bool run = false;
    for (const auto &token : args)
        run = run || token == "run";
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string &token = args[i];
        if (token == "--all" || token.rfind("--all=", 0) == 0)
            token = "--stats";
        if (token.rfind("--threads=", 0) == 0 &&
            intIn(token.substr(10), 5, 1024))
            token = "--threads=4";
        if (token == "--threads" && i + 1 < args.size() &&
            intIn(args[i + 1], 5, 1024))
            args[i + 1] = "4";
        if (run && kSweeps.count(token) != 0)
            token = "table1";
    }
}

std::string
quoted(const std::vector<std::string> &args)
{
    std::string out;
    for (const auto &token : args)
        out += " '" + token + "'";
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/** Run griffin_bench with `args` in `dir`; stdout and stderr go to
 *  files there.  Returns the wait status. */
int
runBench(const std::vector<std::string> &args, const std::string &dir)
{
    std::vector<std::string> argv_store = {GRIFFIN_BENCH_PATH};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &token : argv_store)
        argv.push_back(token.data());
    argv.push_back(nullptr);
    const std::string out = dir + "/stdout.txt";
    const std::string err = dir + "/stderr.txt";

    const pid_t pid = fork();
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec.  A hung
        // case dies of SIGALRM, which the caller reports.
        const int fd_out = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                0644);
        const int fd_err = open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                0644);
        if (fd_out < 0 || fd_err < 0 || chdir(dir.c_str()) != 0 ||
            dup2(fd_out, STDOUT_FILENO) < 0 ||
            dup2(fd_err, STDERR_FILENO) < 0)
            _exit(127);
        alarm(120);
        execv(argv[0], argv.data());
        _exit(127);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid)
        return -1;
    return status;
}

TEST(ArgvFuzz, MutatedCommandLinesExitZeroOrTwo)
{
    const std::string dir = GRIFFIN_ARGV_FUZZ_DIR;
    mkdir(dir.c_str(), 0755);
    Rng rng(22);
    int usage_errors = 0;
    for (int i = 0; i < kCases; ++i) {
        std::vector<std::string> args =
            kBases[static_cast<std::size_t>(i) % kBases.size()];
        const int edits = static_cast<int>(rng.uniformInt(1, 3));
        for (int e = 0; e < edits; ++e)
            mutateOnce(args, rng);
        cheap(args);
        const std::string what =
            "case " + std::to_string(i) + ": griffin_bench" + quoted(args);

        const int status = runBench(args, dir);
        ASSERT_NE(status, -1) << what << ": could not run the child";
        const std::string err = slurp(dir + "/stderr.txt");
        ASSERT_TRUE(WIFEXITED(status))
            << what << ": killed by signal " << WTERMSIG(status) << "\n"
            << err;
        const int code = WEXITSTATUS(status);
        ASSERT_TRUE(code == exitSuccess || code == exitUsageError)
            << what << ": exit " << code << "\n" << err;
        EXPECT_EQ(err.find("Sanitizer"), std::string::npos) << what << err;
        EXPECT_EQ(err.find("runtime error"), std::string::npos)
            << what << err;
        if (code == exitUsageError) {
            ++usage_errors;
            std::istringstream lines(err);
            int fatal_lines = 0;
            for (std::string line; std::getline(lines, line);)
                fatal_lines += line.rfind("fatal: ", 0) == 0;
            EXPECT_EQ(fatal_lines, 1) << what << ": " << err;
        }
    }
    // The mix must exercise both outcomes.
    EXPECT_GT(usage_errors, kCases / 4);
    EXPECT_LT(usage_errors, kCases);
}

} // namespace
} // namespace griffin
