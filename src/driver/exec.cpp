#include "driver/exec.hpp"

#include <cstdio>
#include <ostream>

#include "vm/bcgen.hpp"
#include "vm/vm.hpp"

namespace otter::driver {

void fprintf_stream(std::ostream& out, const std::string& fmt,
                    const std::vector<double>& data) {
  // Same formatting loop as the interpreter (shared output format).
  size_t next = 0;
  do {
    size_t consumed = 0;
    for (size_t i = 0; i < fmt.size(); ++i) {
      char c = fmt[i];
      if (c == '\\' && i + 1 < fmt.size()) {
        char e = fmt[++i];
        if (e == 'n') out << '\n';
        else if (e == 't') out << '\t';
        else out << e;
        continue;
      }
      if (c != '%') {
        out << c;
        continue;
      }
      if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
        out << '%';
        ++i;
        continue;
      }
      std::string spec = "%";
      ++i;
      while (i < fmt.size() && std::string("-+ 0123456789.*").find(fmt[i]) !=
                                   std::string::npos) {
        spec += fmt[i++];
      }
      if (i >= fmt.size()) break;
      char conv = fmt[i];
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
      out << buf;
    }
    if (consumed == 0) break;
  } while (next < data.size());
}

void execute_lir(const lower::LProgram& prog, mpi::Comm& comm,
                 std::ostream& out, const ExecOptions& opts) {
  const vm::BcModule* mod = opts.bytecode;
  vm::BcModule local;
  if (mod == nullptr) {
    local = vm::compile_bytecode(prog);
    mod = &local;
  }
  vm::execute_bytecode(*mod, comm, out, opts);
}

}  // namespace otter::driver
