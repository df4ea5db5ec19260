#include "codegen/ccrun.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <dlfcn.h>
#include <unistd.h>

#include "codegen/emit.hpp"

// Baked in by CMake: where the Otter sources and built archives live.
#ifndef OTTER_SRC_DIR
#define OTTER_SRC_DIR "."
#endif
#ifndef OTTER_BIN_DIR
#define OTTER_BIN_DIR "."
#endif

namespace otter::codegen {

namespace {

using EntryFn = void (*)(mpi::Comm*, std::ostream*, uint64_t, int);

std::string temp_path(const char* suffix) {
  // Atomic: concurrent service requests may build programs simultaneously,
  // and two requests sharing a path would clobber each other's artifacts.
  static std::atomic<int> counter{0};
  std::ostringstream ss;
  ss << "/tmp/otter_gen_" << getpid() << "_" << counter.fetch_add(1) + 1
     << suffix;
  return ss.str();
}

}  // namespace

CompiledProgram::~CompiledProgram() {
  if (handle_) dlclose(handle_);
  if (!so_path_.empty()) std::remove(so_path_.c_str());
}

CompiledProgram::CompiledProgram(CompiledProgram&& o) noexcept
    : handle_(o.handle_), entry_(o.entry_), so_path_(std::move(o.so_path_)) {
  o.handle_ = nullptr;
  o.entry_ = nullptr;
  o.so_path_.clear();
}

CompiledProgram& CompiledProgram::operator=(CompiledProgram&& o) noexcept {
  if (this != &o) {
    if (handle_) dlclose(handle_);
    if (!so_path_.empty()) std::remove(so_path_.c_str());
    handle_ = o.handle_;
    entry_ = o.entry_;
    so_path_ = std::move(o.so_path_);
    o.handle_ = nullptr;
    o.entry_ = nullptr;
    o.so_path_.clear();
  }
  return *this;
}

bool CompiledProgram::toolchain_available() {
  return std::system("c++ --version > /dev/null 2>&1") == 0;
}

std::optional<CompiledProgram> CompiledProgram::build(
    const lower::LProgram& prog, std::string* error) {
  std::string cpp = emit_cpp(prog);
  std::string src_path = temp_path(".cpp");
  std::string so_path = temp_path(".so");
  std::string log_path = temp_path(".log");
  {
    std::ofstream out(src_path);
    out << cpp;
  }

  std::ostringstream cmd;
  // -ffp-contract=off: no FMA fusion, so generated code rounds every
  // multiply and add like the interpreter (see src/CMakeLists.txt).
  cmd << "c++ -std=c++20 -O2 -ffp-contract=off -shared -fPIC"
      << " -I" << OTTER_SRC_DIR << " " << src_path
      << " " << OTTER_BIN_DIR << "/src/rtlib/libotter_rtlib.a"
      << " " << OTTER_BIN_DIR << "/src/minimpi/libotter_minimpi.a"
      << " " << OTTER_BIN_DIR << "/src/support/libotter_support.a"
      << " -o " << so_path << " 2> " << log_path;
  int rc = std::system(cmd.str().c_str());
  if (rc != 0) {
    if (error) {
      std::ifstream log(log_path);
      std::ostringstream ss;
      ss << "compilation of generated code failed:\n" << log.rdbuf();
      *error = ss.str();
    }
    std::remove(src_path.c_str());
    std::remove(log_path.c_str());
    return std::nullopt;
  }
  std::remove(src_path.c_str());
  std::remove(log_path.c_str());

  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    if (error) *error = std::string("dlopen failed: ") + dlerror();
    std::remove(so_path.c_str());
    return std::nullopt;
  }
  void* entry = dlsym(handle, "otter_program");
  if (!entry) {
    if (error) *error = "generated library lacks the otter_program symbol";
    dlclose(handle);
    std::remove(so_path.c_str());
    return std::nullopt;
  }
  CompiledProgram cp;
  cp.handle_ = handle;
  cp.entry_ = entry;
  cp.so_path_ = so_path;
  return cp;
}

void CompiledProgram::run(mpi::Comm& comm, std::ostream& out,
                          const driver::ExecOptions& opts) const {
  auto fn = reinterpret_cast<EntryFn>(entry_);
  fn(&comm, &out, opts.rand_seed, opts.dist == rt::Dist::RowBlock ? 0 : 1);
}

}  // namespace otter::codegen
