// Distributed matrices/vectors — the C++ analogue of the paper's MATRIX
// structure.
//
// "Every matrix and vector is represented on each processor by a C structure
//  named MATRIX which contains global information about its type, rank, and
//  shape. This structure also contains processor-dependent information, such
//  as the total number of matrix elements stored on a particular processor
//  and the address in that processor's local memory of its first matrix
//  element."
//
// Scalars are replicated (plain doubles in generated code); DMat handles the
// distributed rank. Matrices are distributed row-contiguously, vectors by
// element blocks, and objects of identical size are distributed identically
// so element-wise operations never communicate (paper §3 assumptions 1–3).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "rtlib/layout.hpp"
#include "support/governor.hpp"
#include "support/snapshot.hpp"
#include "support/source.hpp"

namespace otter::rt {

/// Runtime failure in the distributed run-time library or the executor.
/// Carries an optional source location (attached by the LIR executor from
/// the failing statement) and a stable E5xxx diagnostic code, mirroring the
/// structured compile-time diagnostics.
class RtError : public std::runtime_error, public mpi::CodedError {
 public:
  explicit RtError(const std::string& msg, SourceLoc where = {},
                   std::string diag_code = "E5001")
      : std::runtime_error(msg), loc(where), code(std::move(diag_code)) {}

  [[nodiscard]] const char* diag_code() const noexcept override {
    return code.c_str();
  }

  SourceLoc loc;     // statement location when known ({} otherwise)
  std::string code;  // e.g. "E5001" generic, "E5003" shape guard
};

// -- dimension validation -----------------------------------------------------
// User-controlled extents (`zeros(n)`, `rand(r, c)`, …) must be rejected
// *before* any buffer is sized: a negative or NaN extent cast to size_t is
// a multi-exabyte allocation request, and rows*cols can overflow size_t
// into a small, wrong payload. Every backend funnels through the DMat
// constructor, which enforces these; the double-valued helpers are for the
// executors that convert script scalars to extents.

/// Largest accepted element count: the payload byte count (8 bytes/elem)
/// must not overflow size_t, with headroom for the layout math.
inline constexpr size_t kMaxMatrixElements =
    std::numeric_limits<size_t>::max() / 8;

/// Throws RtError [E5007] when rows*cols overflows or exceeds the element
/// ceiling. Called by the DMat constructor before any allocation.
void check_extents(size_t rows, size_t cols, SourceLoc loc = {});

/// Converts a script scalar to a dimension extent. Throws RtError [E5007]
/// for negative, non-integral, NaN/Inf, or 2^53-exceeding values (beyond
/// 2^53 a double cannot even name the extent exactly).
size_t checked_dim(double v, const char* what, SourceLoc loc = {});

/// One rank's handle on a distributed real matrix.
class DMat {
 public:
  DMat() = default;

  /// Creates a zero-initialised rows x cols object distributed over comm.
  DMat(mpi::Comm& comm, size_t rows, size_t cols, Dist dist = Dist::RowBlock);

  [[nodiscard]] size_t rows() const { return rows_; }
  [[nodiscard]] size_t cols() const { return cols_; }
  [[nodiscard]] size_t numel() const { return rows_ * cols_; }
  [[nodiscard]] bool is_vector() const { return rows_ == 1 || cols_ == 1; }
  [[nodiscard]] int rank() const { return rank_; }

  /// Distribution unit: elements for vectors, rows for matrices.
  [[nodiscard]] const Layout& layout() const { return layout_; }

  /// Number of *elements* stored locally (paper: ML_local_els).
  [[nodiscard]] size_t local_elements() const { return local_.size(); }

  [[nodiscard]] std::span<double> local() { return local_; }
  [[nodiscard]] std::span<const double> local() const { return local_; }

  /// Global (row, col) of local element index `i` on this rank.
  [[nodiscard]] size_t local_to_global_row(size_t i) const;
  [[nodiscard]] size_t local_to_global_col(size_t i) const;

  /// True iff this rank stores global element (r, c) — paper: ML_owner.
  [[nodiscard]] bool owns(size_t r, size_t c) const;

  /// Owner rank of global element (r, c).
  [[nodiscard]] int owner_of(size_t r, size_t c) const;

  /// Local buffer index of global (r, c); only valid on the owner.
  [[nodiscard]] size_t local_index(size_t r, size_t c) const;

  /// Two objects are aligned (element-wise ops need no communication) when
  /// shapes and distributions match — paper assumption 2.
  [[nodiscard]] bool aligned_with(const DMat& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && layout_ == o.layout_;
  }

  // -- checkpointing ----------------------------------------------------------
  // The local payload is serialized through bit-preserved doubles, so a
  // restored object is bitwise-identical to the captured one — the basis of
  // the differential recovery invariant (resumed run == fault-free run).

  /// Serializes this rank's handle (shape, layout, local payload).
  void save_snapshot(snap::Writer& w) const;

  /// Rebuilds a rank's handle from a snapshot. Validates that the stored
  /// local payload matches the layout's expectation for `rank`; throws
  /// snap::SnapshotError on disagreement (corrupt or mismatched blob).
  static DMat load_snapshot(snap::Reader& r, int rank);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  int rank_ = 0;
  Layout layout_;
  /// Local payload, charged against the process resource governor — the
  /// accounting hook that lets otterd bound a request's memory (E5006).
  gov::PayloadBuffer local_;
};

/// Element-wise operator codes shared by the LIR, the bytecode VM and
/// generated C code.
enum class EwBin : uint8_t {
  Add, Sub, Mul, Div, Pow, Lt, Le, Gt, Ge, Eq, Ne, And, Or, Mod, Rem,
  Min, Max,
};
enum class EwUn : uint8_t {
  Neg, Not, Abs, Sqrt, Exp, Log, Sin, Cos, Tan, Floor, Ceil, Round, Sign,
};

/// Operator counts, for tables indexed by operator (Max and Sign stay last).
inline constexpr size_t kEwBinCount = static_cast<size_t>(EwBin::Max) + 1;
inline constexpr size_t kEwUnCount = static_cast<size_t>(EwUn::Sign) + 1;

// The one definition of each element-wise operator, used by the VM's
// compiled kernels and scalar instructions, by generated C and by the
// ew_* helpers below. Defined inline so that a call with a constant `op`
// folds to the bare operation: driver/kernel.cpp instantiates one block
// loop per operator this way.
inline double ew_apply_bin(EwBin op, double a, double b) {
  switch (op) {
    case EwBin::Add: return a + b;
    case EwBin::Sub: return a - b;
    case EwBin::Mul: return a * b;
    case EwBin::Div: return a / b;
    case EwBin::Pow: return std::pow(a, b);
    case EwBin::Lt: return a < b ? 1.0 : 0.0;
    case EwBin::Le: return a <= b ? 1.0 : 0.0;
    case EwBin::Gt: return a > b ? 1.0 : 0.0;
    case EwBin::Ge: return a >= b ? 1.0 : 0.0;
    case EwBin::Eq: return a == b ? 1.0 : 0.0;
    case EwBin::Ne: return a != b ? 1.0 : 0.0;
    case EwBin::And: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case EwBin::Or: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    case EwBin::Mod: {
      if (b == 0.0) return a;
      double r = std::fmod(a, b);
      if (r != 0.0 && ((r < 0) != (b < 0))) r += b;
      return r;
    }
    case EwBin::Rem: return std::fmod(a, b);
    case EwBin::Min: return std::min(a, b);
    case EwBin::Max: return std::max(a, b);
  }
  return 0.0;
}

inline double ew_apply_un(EwUn op, double a) {
  switch (op) {
    case EwUn::Neg: return -a;
    case EwUn::Not: return a == 0.0 ? 1.0 : 0.0;
    case EwUn::Abs: return std::fabs(a);
    case EwUn::Sqrt: return std::sqrt(a);
    case EwUn::Exp: return std::exp(a);
    case EwUn::Log: return std::log(a);
    case EwUn::Sin: return std::sin(a);
    case EwUn::Cos: return std::cos(a);
    case EwUn::Tan: return std::tan(a);
    case EwUn::Floor: return std::floor(a);
    case EwUn::Ceil: return std::ceil(a);
    case EwUn::Round: return std::round(a);
    case EwUn::Sign: return a > 0 ? 1.0 : (a < 0 ? -1.0 : 0.0);
  }
  return 0.0;
}

// -- construction -------------------------------------------------------------

/// Builds a distributed object from replicated full data (row-major).
DMat from_full(mpi::Comm& comm, size_t rows, size_t cols,
               std::span<const double> data, Dist dist = Dist::RowBlock);

/// Gathers to a replicated full copy on every rank (gather at root + bcast).
std::vector<double> to_full(mpi::Comm& comm, const DMat& m);

/// Buffer-reuse hook for element-wise results: keeps dst's storage when it
/// is already aligned with proto, otherwise replaces it with a fresh
/// zero-initialised object of proto's shape and distribution. Returns dst.
/// Callers must not pass a dst that aliases an operand of the loop about to
/// run unless it is known aligned (a replaced buffer would drop its data).
DMat& ensure_like(mpi::Comm& comm, DMat& dst, const DMat& proto);

DMat fill_zeros(mpi::Comm& comm, size_t rows, size_t cols,
                Dist dist = Dist::RowBlock);
DMat fill_ones(mpi::Comm& comm, size_t rows, size_t cols,
               Dist dist = Dist::RowBlock);
DMat fill_eye(mpi::Comm& comm, size_t rows, size_t cols,
              Dist dist = Dist::RowBlock);
DMat fill_value(mpi::Comm& comm, size_t rows, size_t cols, double v,
                Dist dist = Dist::RowBlock);

/// lo : step : hi as a distributed row vector.
DMat fill_range(mpi::Comm& comm, double lo, double step, double hi,
                Dist dist = Dist::RowBlock);
DMat fill_linspace(mpi::Comm& comm, double lo, double hi, size_t n,
                   Dist dist = Dist::RowBlock);

/// Deterministic rand(rows, cols): element (r, c) gets the same value the
/// interpreter's LCG produces at flat index r*cols + c, regardless of rank
/// count — every backend computes identical data. `seq` is the number of
/// rand values generated so far (the caller advances it by rows*cols).
DMat fill_rand(mpi::Comm& comm, size_t rows, size_t cols, uint64_t seed,
               uint64_t seq, Dist dist = Dist::RowBlock);

// -- element access -----------------------------------------------------------

/// Replicated read of global element (r, c): the owner broadcasts
/// (paper: ML_broadcast of d(i, j)). 0-based indices.
double get_element(mpi::Comm& comm, const DMat& m, size_t r, size_t c);

/// Replicated write: only the owner stores (paper pass 5's owner guard);
/// every rank must call with the same value. 0-based indices.
void set_element(mpi::Comm& comm, DMat& m, size_t r, size_t c, double v);

// -- communication-free element-wise helpers -----------------------------------
// Identical-size objects are identically distributed, so these touch only
// local storage. Generated C code emits raw loops with the same semantics.

/// Throws RtError [E5001] "element-wise op on unaligned operands" unless
/// `b` is aligned with `a`: the precondition of every communication-free
/// element-wise loop (ew_binary, the VM's compiled kernels, generated C).
void require_aligned(const DMat& a, const DMat& b);

DMat ew_binary(mpi::Comm& comm, EwBin op, const DMat& a, const DMat& b);
DMat ew_binary_scalar(mpi::Comm& comm, EwBin op, const DMat& a, double s,
                      bool scalar_left);
DMat ew_unary(mpi::Comm& comm, EwUn op, const DMat& a);

/// dst = x op s*eye(rows, cols), or s*eye(rows, cols) op x when eye_first,
/// for op Add or Sub: the element-wise loop over x and an identity built
/// in `dist`, in one pass over x and without building the identity. Each
/// element combines with s*1.0 on the diagonal and s*0.0 off it, in the
/// written operator and operand order, so every bit equals that loop's:
/// -0.0 + s*0.0 is +0.0 for positive s, and an infinite or NaN s makes
/// every element NaN. dst may be x (the update is then in place);
/// otherwise dst is reused when aligned with x, as ensure_like does.
/// Throws RtError [E5007] for extents check_extents rejects and [E5001]
/// with the loop's "unaligned operands" message when x is not a rows x
/// cols object in `dist`.
void eye_update(mpi::Comm& comm, DMat& dst, const DMat& x, double s,
                size_t rows, size_t cols, EwBin op, bool eye_first,
                Dist dist);

// -- operations requiring communication ----------------------------------------

/// C = A * B (paper: ML_matrix_multiply). Row-distributed A and B: B is
/// allgathered, then each rank computes its C rows locally.
DMat matmul(mpi::Comm& comm, const DMat& a, const DMat& b);

/// The register tile `matmul` runs on this CPU, e.g. "avx512f 8x16": the
/// widest the CPU supports, picked once per process (otterc --times prints
/// it). Every tile gives the same bits.
const char* matmul_kernel_name();

/// y = A * x with x a distributed vector (paper: ML_matrix_vector_multiply).
DMat matvec(mpi::Comm& comm, const DMat& a, const DMat& x);

/// x' * A for row-vector results (vector-matrix product).
DMat vecmat(mpi::Comm& comm, const DMat& x, const DMat& a);

/// Outer product column * row -> matrix.
DMat outer(mpi::Comm& comm, const DMat& col, const DMat& row);

/// Dot product of two vectors (local dot + allreduce).
double dot(mpi::Comm& comm, const DMat& a, const DMat& b);

/// Which whole-operand reduction (or column-wise flavour) a call performs.
enum class RedKind : uint8_t { Sum, Mean, Min, Max, Prod };

/// The allreduce operator behind a reduction: its class. Sum and mean share
/// one (mean divides afterwards); min, max and prod are each their own.
inline mpi::Comm::ReduceOp reduce_class(RedKind k) {
  switch (k) {
    case RedKind::Min: return mpi::Comm::ReduceOp::Min;
    case RedKind::Max: return mpi::Comm::ReduceOp::Max;
    case RedKind::Prod: return mpi::Comm::ReduceOp::Prod;
    default: return mpi::Comm::ReduceOp::Sum;
  }
}

double reduce_sum(mpi::Comm& comm, const DMat& m);
double reduce_min(mpi::Comm& comm, const DMat& m);
double reduce_max(mpi::Comm& comm, const DMat& m);
double reduce_mean(mpi::Comm& comm, const DMat& m);
double reduce_prod(mpi::Comm& comm, const DMat& m);

/// One member of a coalesced reduction group.
struct ReduceTerm {
  RedKind kind;
  const DMat* m;
};

/// out[i] = reduce_<terms[i].kind>(*terms[i].m) for every member, with one
/// k-element allreduce instead of k scalar ones. All members must share a
/// class. Each local partial, its start value and the combining tree are
/// those of the single call, so every result is bit-identical to it.
void reduce_group(mpi::Comm& comm, std::span<const ReduceTerm> terms,
                  double* out);

/// Column-wise sums of a matrix as a distributed 1 x cols vector.
DMat colwise_sum(mpi::Comm& comm, const DMat& m, bool mean);
DMat colwise_minmax(mpi::Comm& comm, const DMat& m, bool is_min);

/// Transpose (alltoallv redistribution).
DMat transpose(mpi::Comm& comm, const DMat& m);

/// Contiguous 1-D slice x(lo..hi) (0-based, inclusive) as a new distributed
/// vector with block layout — redistributes across ranks.
DMat slice_vector(mpi::Comm& comm, const DMat& x, size_t lo, size_t hi);

/// Row r / column c of a matrix as a new distributed vector.
DMat extract_row(mpi::Comm& comm, const DMat& m, size_t r);
DMat extract_col(mpi::Comm& comm, const DMat& m, size_t c);

/// Writes a whole row/column of a matrix from a distributed vector.
void assign_row(mpi::Comm& comm, DMat& m, size_t r, const DMat& v);
void assign_col(mpi::Comm& comm, DMat& m, size_t c, const DMat& v);

/// Writes a contiguous 1-D slice of x from another distributed vector.
void assign_slice(mpi::Comm& comm, DMat& x, size_t lo, size_t hi,
                  const DMat& v);

/// trapz with unit spacing / with coordinates (boundary exchange + allreduce).
double trapz(mpi::Comm& comm, const DMat& y);
double trapz_xy(mpi::Comm& comm, const DMat& x, const DMat& y);

/// Loads a plain-text matrix file (rank 0 reads and broadcasts — the paper's
/// "one processor coordinates all I/O operations"). The compiler inferred
/// type/rank from the same file at compile time (paper pass 3).
DMat load_matrix(mpi::Comm& comm, const std::string& path,
                 Dist dist = Dist::RowBlock);

/// Formats the matrix exactly like the interpreter's disp (gather to rank 0;
/// result only meaningful on rank 0).
std::string format_dmat(mpi::Comm& comm, const DMat& m);

}  // namespace otter::rt
