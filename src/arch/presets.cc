#include "arch/presets.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace griffin {

namespace {

ArchConfig
base(const char *name)
{
    ArchConfig cfg;
    cfg.name = name;
    return cfg;
}

} // namespace

ArchConfig
denseBaseline()
{
    auto cfg = base("Baseline");
    cfg.routing = RoutingConfig::dense();
    return cfg;
}

ArchConfig
sparseBStar()
{
    auto cfg = base("Sparse.B*");
    cfg.routing = RoutingConfig::sparseB(4, 0, 1, true);
    return cfg;
}

ArchConfig
sparseAStar()
{
    auto cfg = base("Sparse.A*");
    cfg.routing = RoutingConfig::sparseA(2, 1, 0, true);
    return cfg;
}

ArchConfig
sparseABStar()
{
    auto cfg = base("Sparse.AB*");
    cfg.routing = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    return cfg;
}

ArchConfig
griffinArch()
{
    auto cfg = base("Griffin");
    cfg.routing = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    cfg.hybrid = true;
    return cfg;
}

ArchConfig
tclB()
{
    // BitTactical's lookahead/lookaside weight scheduler, expressed in
    // the routing framework: time + lane borrowing, no cross-PE
    // routing (db3 = 0) and no shuffler — exactly the two features the
    // paper credits Sparse.B* 47% power efficiency over TCL.B for.
    auto cfg = base("TCL.B");
    cfg.routing = RoutingConfig::sparseB(2, 2, 0, false);
    return cfg;
}

ArchConfig
tdashAB()
{
    // TensorDash matches both operands at runtime: symmetric windows,
    // no preprocessing, no shuffle.  Raw-stream co-residency limits
    // its effective lookahead (DESIGN.md Section 3).
    auto cfg = base("TDash.AB");
    cfg.routing =
        RoutingConfig::sparseAB(3, 1, 0, 3, 1, 0, false,
                                /*preprocess_b=*/false);
    return cfg;
}

namespace {

ArchConfig
sparTenCommon(const char *name, SparsityMode mode)
{
    // SparTen has no K unrolling: 1024 independent MACs, each matching
    // compressed operand pairs through prefix-sum logic backed by
    // 128-deep input buffers (paper Section VI-E).  Cycle behaviour
    // comes from the dedicated simulator in src/baselines.
    auto cfg = base(name);
    cfg.style = DatapathStyle::MacGrid;
    cfg.macBufferDepth = 128;
    RoutingConfig routing;
    routing.mode = mode;
    // Borrowing in time only, bounded by the deep per-MAC buffers.
    const Borrow deep{127, 0, 0};
    if (mode == SparsityMode::A || mode == SparsityMode::AB)
        routing.a = deep;
    if (mode == SparsityMode::B || mode == SparsityMode::AB)
        routing.b = deep;
    routing.preprocessB = false;
    // MacGrid routing is interpreted by the SparTen simulator, not the
    // window scheduler; keep the config self-consistent regardless.
    if (mode == SparsityMode::B)
        routing.preprocessB = true;
    cfg.routing = routing;
    return cfg;
}

} // namespace

ArchConfig
sparTenAB()
{
    return sparTenCommon("SparTen.AB", SparsityMode::AB);
}

ArchConfig
sparTenA()
{
    return sparTenCommon("SparTen.A", SparsityMode::A);
}

ArchConfig
sparTenB()
{
    return sparTenCommon("SparTen.B", SparsityMode::B);
}

ArchConfig
cnvlutinA()
{
    // Cnvlutin compresses activations in time only (da1), without
    // shuffling or lane borrowing.
    auto cfg = base("Cnvlutin.A");
    cfg.routing = RoutingConfig::sparseA(7, 0, 0, false);
    return cfg;
}

ArchConfig
cambriconXB()
{
    // Cambricon-X routes nonzero weights within a 16x16 window; the
    // resulting input crossbar is the scaling bottleneck the paper
    // calls out (Section VII).
    auto cfg = base("Cambricon-X.B");
    cfg.routing = RoutingConfig::sparseB(15, 15, 0, false);
    return cfg;
}

std::vector<ArchConfig>
allPresets()
{
    return {denseBaseline(), sparseBStar(), sparseAStar(), sparseABStar(),
            griffinArch(),   tclB(),        tdashAB(),     sparTenAB(),
            sparTenA(),      sparTenB(),    cnvlutinA(),   cambriconXB()};
}

std::vector<ArchConfig>
tableSevenPresets()
{
    return {denseBaseline(), sparseBStar(), tclB(),    sparseAStar(),
            sparseABStar(),  griffinArch(), tdashAB(), sparTenAB()};
}

namespace {

std::string
knownPresetsList()
{
    std::string known;
    for (const auto &cfg : allPresets())
        known += " '" + cfg.name + "'";
    return known;
}

} // namespace

ArchConfig
presetByName(const std::string &name)
{
    for (auto &cfg : allPresets())
        if (cfg.name == name)
            return cfg;
    fatal("unknown architecture preset '", name,
          "'; known:", knownPresetsList());
}

namespace {

int
routingDistance(const std::string &token, const std::string &spec)
{
    const auto t = trim(token);
    std::size_t pos = 0;
    int v = 0;
    bool any = false;
    for (; pos < t.size() && t[pos] >= '0' && t[pos] <= '9'; ++pos) {
        if (v <= maxRoutingDistance) // stops growing: cannot overflow
            v = v * 10 + (t[pos] - '0');
        any = true;
    }
    if (!any || pos != t.size())
        fatal("bad routing distance '", token, "' in arch spec '", spec,
              "'");
    if (v > maxRoutingDistance)
        fatal("routing distance '", token, "' in arch spec '", spec,
              "' exceeds ", maxRoutingDistance);
    return v;
}

bool
routingShuffle(const std::string &token, const std::string &spec)
{
    const auto t = trim(token);
    if (t == "on")
        return true;
    if (t == "off")
        return false;
    fatal("bad shuffle flag '", token, "' in arch spec '", spec,
          "' (want on/off)");
}

[[noreturn]] void
unknownArch(const std::string &name)
{
    fatal("unknown architecture '", name,
          "': not a preset and not a routing spec "
          "(Dense | A(d1,d2,d3,on|off) | B(d1,d2,d3,on|off) | "
          "AB(a1,a2,a3,b1,b2,b3,on|off)[otf]); known presets:",
          knownPresetsList());
}

} // namespace

ArchConfig
archByName(const std::string &name)
{
    for (auto &cfg : allPresets())
        if (cfg.name == name)
            return cfg;

    auto cfg = denseBaseline();
    std::string spec = trim(name);
    if (spec == "Dense") {
        cfg.name = "Dense";
        return cfg;
    }

    bool preprocess_b = true;
    if (spec.size() > 5 &&
        spec.compare(spec.size() - 5, 5, "[otf]") == 0) {
        preprocess_b = false;
        spec = spec.substr(0, spec.size() - 5);
    }
    const auto open = spec.find('(');
    if (open == std::string::npos || spec.back() != ')')
        unknownArch(name);
    const auto mode = spec.substr(0, open);
    const auto fields =
        splitList(spec.substr(open + 1, spec.size() - open - 2), ',');
    if (mode == "A" && fields.size() == 4 && preprocess_b) {
        cfg.routing = RoutingConfig::sparseA(
            routingDistance(fields[0], name),
            routingDistance(fields[1], name),
            routingDistance(fields[2], name),
            routingShuffle(fields[3], name));
    } else if (mode == "B" && fields.size() == 4 && preprocess_b) {
        cfg.routing = RoutingConfig::sparseB(
            routingDistance(fields[0], name),
            routingDistance(fields[1], name),
            routingDistance(fields[2], name),
            routingShuffle(fields[3], name));
    } else if (mode == "AB" && fields.size() == 7) {
        cfg.routing = RoutingConfig::sparseAB(
            routingDistance(fields[0], name),
            routingDistance(fields[1], name),
            routingDistance(fields[2], name),
            routingDistance(fields[3], name),
            routingDistance(fields[4], name),
            routingDistance(fields[5], name),
            routingShuffle(fields[6], name), preprocess_b);
    } else {
        unknownArch(name);
    }
    cfg.name = cfg.routing.str();
    return cfg;
}

} // namespace griffin
