// Support header included by GENERATED SPMD C code (paper Figure 1: the
// compiler's output is "C code with calls to the run-time library").
//
// Hand-written programs should use rtlib/dmatrix.hpp directly; this header
// adds only the glue generated code needs: the execution context (rank
// communicator + output stream + shared rand state) and the formatted-I/O
// helpers whose behaviour must match the interpreter byte-for-byte.
#pragma once

#include <cstdio>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "rtlib/dmatrix.hpp"
#include "support/rng.hpp"

namespace otter::genrt {

struct Ctx {
  mpi::Comm& comm;
  std::ostream& out;
  uint64_t rand_seed = 1;
  uint64_t rand_seq = 0;
  rt::Dist dist = rt::Dist::RowBlock;
  /// The statement running now (ML_at), for run-time error context.
  SourceLoc at{};
  const char* op = nullptr;
};

/// Records the statement about to run, as the VM's statement map does.
inline void ML_at(Ctx& ctx, uint32_t line, uint32_t col, const char* op) {
  ctx.at = SourceLoc{0, line, col};
  ctx.op = op;
}

/// Runs the script. A run-time error leaves it with the VM's prefix
/// "line N (op): " for the statement that raised it, and an allocation
/// failure becomes the VM's E5006.
template <typename Script>
void ML_run(Ctx& ctx, Script&& script) {
  auto context = [&ctx] {
    std::string s;
    if (ctx.op == nullptr) return s;
    if (ctx.at.valid()) s += "line " + std::to_string(ctx.at.line) + " ";
    return s + "(" + ctx.op + "): ";
  };
  try {
    script(ctx);
  } catch (const rt::RtError& e) {
    throw rt::RtError(context() + e.what(), e.loc.valid() ? e.loc : ctx.at,
                      e.code);
  } catch (const std::bad_alloc& e) {
    throw rt::RtError(context() + e.what(), ctx.at, "E5006");
  }
}

/// Replicated scalar rand draw — identical sequence on every rank/backend.
inline double ML_rand_scalar(Ctx& ctx) {
  Lcg g(ctx.rand_seed);
  g.discard(ctx.rand_seq);
  ++ctx.rand_seq;
  return g.next();
}

inline rt::DMat ML_rand(Ctx& ctx, size_t r, size_t c) {
  rt::DMat m = rt::fill_rand(ctx.comm, r, c, ctx.rand_seed, ctx.rand_seq,
                             ctx.dist);
  ctx.rand_seq += static_cast<uint64_t>(r) * c;
  return m;
}

/// Linear (flat) element read: vectors index along their length; full
/// matrices use row-major order (documented Otter deviation).
inline double ML_get_linear(Ctx& ctx, const rt::DMat& m, size_t k) {
  size_t r;
  size_t c;
  if (m.rows() == 1) {
    r = 0;
    c = k;
  } else if (m.cols() == 1) {
    r = k;
    c = 0;
  } else {
    r = k / m.cols();
    c = k % m.cols();
  }
  return rt::get_element(ctx.comm, m, r, c);
}

inline void ML_set_linear(Ctx& ctx, rt::DMat& m, size_t k, double v) {
  size_t r;
  size_t c;
  if (m.rows() == 1) {
    r = 0;
    c = k;
  } else if (m.cols() == 1) {
    r = k;
    c = 0;
  } else {
    r = k / m.cols();
    c = k % m.cols();
  }
  rt::set_element(ctx.comm, m, r, c, v);
}

inline void ML_display_scalar(Ctx& ctx, const char* name, double v) {
  if (ctx.comm.rank() != 0) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  ctx.out << name << " =\n" << buf << '\n';
}

inline void ML_display_matrix(Ctx& ctx, const char* name, const rt::DMat& m) {
  std::string body = rt::format_dmat(ctx.comm, m);
  if (ctx.comm.rank() == 0) ctx.out << name << " =\n" << body;
}

/// Run-time check behind a degraded compile-time shape assumption: the
/// compiler assumed `m` is a matrix (column-wise reduction semantics). A true
/// vector argument means the assumption was wrong — abort with a coded
/// diagnostic rather than compute the wrong value.
inline void ML_shape_check(const rt::DMat& m, const char* what,
                           unsigned line) {
  if ((m.rows() == 1 || m.cols() == 1) && m.numel() > 1) {
    throw rt::RtError(
        "shape guard failed: the argument of '" + std::string(what) +
            "' was assumed to be a matrix at compile time but is a " +
            std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
            " vector at run time (recompile with --strict-infer to reject "
            "this program statically)",
        SourceLoc{0, static_cast<uint32_t>(line), 0}, "E5003");
  }
}

inline void ML_disp_scalar(Ctx& ctx, double v) {
  if (ctx.comm.rank() != 0) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  ctx.out << buf << '\n';
}

inline void ML_disp_string(Ctx& ctx, const char* s) {
  if (ctx.comm.rank() == 0) ctx.out << s << '\n';
}

inline void ML_disp_matrix(Ctx& ctx, const rt::DMat& m) {
  std::string body = rt::format_dmat(ctx.comm, m);
  if (ctx.comm.rank() == 0) ctx.out << body;
}

/// One fprintf argument: a replicated scalar or a gathered matrix.
struct MLArg {
  bool is_matrix = false;
  double scalar = 0.0;
  const rt::DMat* matrix = nullptr;

  /* implicit */ MLArg(double v) : scalar(v) {}
  /* implicit */ MLArg(const rt::DMat& m) : is_matrix(true), matrix(&m) {}
};

/// MATLAB-style fprintf: cycles the format string until data is exhausted.
/// Matrices are gathered (collective — every rank must call this).
inline void ML_fprintf(Ctx& ctx, const char* fmt,
                       std::initializer_list<MLArg> args = {}) {
  std::vector<double> data;
  for (const MLArg& a : args) {
    if (a.is_matrix) {
      std::vector<double> full = rt::to_full(ctx.comm, *a.matrix);
      data.insert(data.end(), full.begin(), full.end());
    } else {
      data.push_back(a.scalar);
    }
  }
  if (ctx.comm.rank() != 0) return;
  std::string f(fmt);
  size_t next = 0;
  do {
    size_t consumed = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      char c = f[i];
      if (c == '\\' && i + 1 < f.size()) {
        char e = f[++i];
        if (e == 'n') ctx.out << '\n';
        else if (e == 't') ctx.out << '\t';
        else ctx.out << e;
        continue;
      }
      if (c != '%') {
        ctx.out << c;
        continue;
      }
      if (i + 1 < f.size() && f[i + 1] == '%') {
        ctx.out << '%';
        ++i;
        continue;
      }
      std::string spec = "%";
      ++i;
      while (i < f.size() && std::string("-+ 0123456789.*").find(f[i]) !=
                                 std::string::npos) {
        spec += f[i++];
      }
      if (i >= f.size()) break;
      char conv = f[i];
      spec += conv;
      double v = next < data.size() ? data[next] : 0.0;
      if (next < data.size()) {
        ++next;
        ++consumed;
      }
      char buf[128];
      if (conv == 'd' || conv == 'i') {
        std::string s2 = spec.substr(0, spec.size() - 1) + "lld";
        std::snprintf(buf, sizeof buf, s2.c_str(), static_cast<long long>(v));
      } else {
        std::snprintf(buf, sizeof buf, spec.c_str(), v);
      }
      ctx.out << buf;
    }
    if (consumed == 0) break;
  } while (next < data.size());
}

}  // namespace otter::genrt
