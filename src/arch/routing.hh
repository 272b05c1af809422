/**
 * @file
 * Routing configurations: the paper's core abstraction.
 *
 * A sparse architecture is defined by how far a multiplier can borrow
 * a nonzero operand along each axis of the blocked operand layout
 * (Definitions III.1, III.2, IV.1):
 *
 *   d1 — lookahead across temporal steps (k1),
 *   d2 — lookaside across lanes of the dot-product unit (k2),
 *   d3 — across the third axis: PE rows for A, PE columns for B
 *        (requires an extra adder tree to route the partial product
 *        back to the home accumulator).
 *
 * Plus the rotation shuffle flag (Section III, Load Balancing) and —
 * for dual-sparse designs — whether B is preprocessed offline into a
 * compressed stream (Griffin-style) or matched on the fly
 * (TensorDash-style).
 */

#ifndef GRIFFIN_ARCH_ROUTING_HH
#define GRIFFIN_ARCH_ROUTING_HH

#include <string>

namespace griffin {

/**
 * Largest distance an arch spec string may name (archByName): presets
 * reach 15 and the design-space explorer 8.  It bounds the schedulers'
 * window depth and steal scans for user-supplied specs.
 */
constexpr int maxRoutingDistance = 64;

/** Borrowing distances along (time, lane, cross-PE) for one matrix. */
struct Borrow
{
    int d1 = 0;
    int d2 = 0;
    int d3 = 0;

    bool
    operator==(const Borrow &o) const
    {
        return d1 == o.d1 && d2 == o.d2 && d3 == o.d3;
    }
    bool operator!=(const Borrow &o) const { return !(*this == o); }
};

/** Which operand tensors the datapath can skip zeros in. */
enum class SparsityMode
{
    Dense, ///< no zero skipping
    A,     ///< activation-only (on-the-fly)
    B,     ///< weight-only (preprocessed)
    AB     ///< dual sparsity
};

const char *toString(SparsityMode mode);

/**
 * Complete routing description of one architecture configuration.
 * Factory functions enforce that unused distances stay zero.
 */
struct RoutingConfig
{
    SparsityMode mode = SparsityMode::Dense;
    Borrow a;            ///< A-side distances (zero unless mode has A)
    Borrow b;            ///< B-side distances (zero unless mode has B)
    bool shuffle = false;
    /**
     * Offline compression of B.  Always true for Sparse.B; for
     * Sparse.AB, false models TensorDash-style designs that match both
     * operands at runtime and therefore need deeper raw buffers.
     */
    bool preprocessB = false;

    bool
    operator==(const RoutingConfig &o) const
    {
        return mode == o.mode && a == o.a && b == o.b &&
               shuffle == o.shuffle && preprocessB == o.preprocessB;
    }
    bool operator!=(const RoutingConfig &o) const { return !(*this == o); }

    /** Does the datapath skip zeros in A (resp. B)? */
    bool sparseA() const
    {
        return mode == SparsityMode::A || mode == SparsityMode::AB;
    }
    bool sparseB() const
    {
        return mode == SparsityMode::B || mode == SparsityMode::AB;
    }

    /** Paper-style short name, e.g. "AB(2,0,0,2,0,1,on)". */
    std::string str() const;

    /** Panic if distances are inconsistent with the mode. */
    void validate() const;

    // -- factories ---------------------------------------------------

    static RoutingConfig dense();
    static RoutingConfig sparseA(int d1, int d2, int d3, bool shuffle);
    static RoutingConfig sparseB(int d1, int d2, int d3, bool shuffle);
    static RoutingConfig sparseAB(int a1, int a2, int a3, int b1, int b2,
                                  int b3, bool shuffle,
                                  bool preprocess_b = true);
};

/**
 * Window geometry the scheduler runs with, derived from a routing
 * config (the window's semantics are in sched/window_scheduler.hh).
 *
 * steps:    how many original temporal steps are simultaneously
 *           resident in the operand buffers (ideal max speedup).
 * laneDist: how many lanes ahead a slot may steal from.
 * rowDist:  cross-PE distance along A's third axis (M0 rows).
 * colDist:  cross-PE distance along B's third axis (N0 columns).
 */
struct WindowParams
{
    int steps = 1;
    int laneDist = 0;
    int rowDist = 0;
    int colDist = 0;

    bool
    operator==(const WindowParams &o) const
    {
        return steps == o.steps && laneDist == o.laneDist &&
               rowDist == o.rowDist && colDist == o.colDist;
    }
    bool operator!=(const WindowParams &o) const { return !(*this == o); }
};

WindowParams windowParams(const RoutingConfig &cfg);

} // namespace griffin

#endif // GRIFFIN_ARCH_ROUTING_HH
