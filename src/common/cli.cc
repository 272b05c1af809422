#include "common/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace griffin {

namespace {

/** Token a Kind::Bool flag accepts as a separate-argument value. */
bool
isBoolToken(const std::string &token)
{
    return token == "true" || token == "false" || token == "on" ||
           token == "off" || token == "0" || token == "1";
}

} // namespace

Cli::Cli(std::string program_description)
    : description_(std::move(program_description))
{
}

void
Cli::addInt(const std::string &name, std::int64_t def,
            const std::string &help)
{
    flags_[name] = {Kind::Int, std::to_string(def), std::to_string(def),
                    help};
}

void
Cli::addDouble(const std::string &name, double def, const std::string &help)
{
    std::ostringstream os;
    os << def;
    flags_[name] = {Kind::Double, os.str(), os.str(), help};
}

void
Cli::addString(const std::string &name, const std::string &def,
               const std::string &help)
{
    flags_[name] = {Kind::String, def, def, help};
}

void
Cli::addBool(const std::string &name, bool def, const std::string &help)
{
    const std::string v = def ? "true" : "false";
    flags_[name] = {Kind::Bool, v, v, help};
}

const Cli::Flag &
Cli::find(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    GRIFFIN_ASSERT(it != flags_.end(), "flag --", name, " not declared");
    GRIFFIN_ASSERT(it->second.kind == kind,
                   "flag --", name, " queried with the wrong type");
    return it->second;
}

void
Cli::set(const std::string &name, const std::string &value)
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        fatal("unknown flag --", name, "\n", usage());
    it->second.value = value;
}

std::vector<std::string>
Cli::parse(int argc, const char *const *argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            // The usage is the whole output: a lost write fails the run.
            if (std::fputs(usage().c_str(), stdout) == EOF ||
                std::fflush(stdout) != 0)
                fatalRun("write to stdout failed");
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            set(arg.substr(0, eq), arg.substr(eq + 1));
            continue;
        }
        auto it = flags_.find(arg);
        if (it == flags_.end())
            fatal("unknown flag --", arg, "\n", usage());
        if (it->second.kind == Kind::Bool) {
            // A bare switch means true, but honour a separate-token
            // boolean value ("--shuffle off") instead of silently
            // setting the flag and demoting the value to a positional.
            if (i + 1 < argc && isBoolToken(argv[i + 1]))
                it->second.value = argv[++i];
            else
                it->second.value = "true";
        } else {
            if (i + 1 >= argc)
                fatal("flag --", arg, " expects a value");
            it->second.value = argv[++i];
        }
    }
    return positional;
}

std::int64_t
Cli::getInt(const std::string &name) const
{
    const auto &flag = find(name, Kind::Int);
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoll(flag.value.c_str(), &end, 10);
    // end == start catches the empty value ("--iters="): strtoll
    // consumes nothing but still leaves *end == '\0' there.
    if (end == flag.value.c_str() || *end != '\0')
        fatal("flag --", name, " expects an integer, got '", flag.value,
              "'");
    // Out of range, strtoll clamps to INT64_MIN/MAX and sets ERANGE.
    if (errno == ERANGE)
        fatal("flag --", name, " value '", flag.value,
              "' is out of range for a 64-bit integer");
    return v;
}

double
Cli::getDouble(const std::string &name) const
{
    const auto &flag = find(name, Kind::Double);
    char *end = nullptr;
    const double v = std::strtod(flag.value.c_str(), &end);
    // end == start rejects the empty value, which strtod "parses" as
    // 0.0 with *end == '\0'.
    if (end == flag.value.c_str() || *end != '\0')
        fatal("flag --", name, " expects a number, got '", flag.value, "'");
    return v;
}

std::string
Cli::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

bool
Cli::getBool(const std::string &name) const
{
    const auto &flag = find(name, Kind::Bool);
    if (flag.value == "true" || flag.value == "1" || flag.value == "on")
        return true;
    if (flag.value == "false" || flag.value == "0" || flag.value == "off")
        return false;
    fatal("flag --", name, " expects a boolean, got '", flag.value, "'");
}

std::string
Cli::usage() const
{
    std::ostringstream os;
    os << description_ << "\n\nflags:\n";
    for (const auto &[name, flag] : flags_) {
        os << "  --" << name << " (default: " << flag.def << ")\n      "
           << flag.help << "\n";
    }
    return os.str();
}

} // namespace griffin
