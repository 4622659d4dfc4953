#include "minicc/driver.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "minicc/irgen.hpp"
#include "minicc/parser.hpp"
#include "minicc/passes.hpp"

namespace xaas::minicc {

CompileFlags CompileFlags::parse_args(const std::vector<std::string>& args) {
  CompileFlags flags;
  for (const auto& arg : args) {
    if (common::starts_with(arg, "-D")) {
      flags.defines.push_back(arg.substr(2));
    } else if (common::starts_with(arg, "-I")) {
      flags.include_dirs.push_back(arg.substr(2));
    } else if (common::starts_with(arg, "-O")) {
      flags.opt_level = std::atoi(arg.c_str() + 2);
    } else if (arg == "-fopenmp") {
      flags.openmp = true;
    } else if (common::starts_with(arg, "-m")) {
      flags.march = isa::vector_isa_from_string(arg.substr(2));
    }
    // Unknown flags ignored (behavioral comparison only needs the ones
    // that change the produced IR).
  }
  return flags;
}

std::vector<std::string> CompileFlags::to_args() const {
  std::vector<std::string> args;
  for (const auto& d : defines) args.push_back("-D" + d);
  for (const auto& i : include_dirs) args.push_back("-I" + i);
  args.push_back("-O" + std::to_string(opt_level));
  if (openmp) args.push_back("-fopenmp");
  if (march) args.push_back("-m" + std::string(isa::to_string(*march)));
  return args;
}

std::string CompileFlags::canonical() const {
  std::vector<std::string> args = to_args();
  std::sort(args.begin(), args.end());
  return common::join(args, " ");
}

PreprocessResult preprocess_file(const common::Vfs& vfs,
                                 const std::string& path,
                                 const CompileFlags& flags) {
  PreprocessOptions options;
  options.include_dirs = flags.include_dirs;
  for (const auto& d : flags.defines) options.define(d);
  if (flags.openmp) options.define("_OPENMP=202111");
  return preprocess(vfs, path, options);
}

CompileToIrResult compile_to_ir(const common::Vfs& vfs,
                                const std::string& path,
                                const CompileFlags& flags) {
  CompileToIrResult result;

  PreprocessResult pp = preprocess_file(vfs, path, flags);
  if (!pp.ok) {
    result.error = {"preprocess", pp.error};
    return result;
  }
  result.preprocessed = pp.output;

  ParseResult parsed = parse(pp.output);
  if (!parsed.ok) {
    result.error = {"parse", parsed.error + " [" + path + "]"};
    return result;
  }
  result.openmp_constructs = ast::uses_openmp(parsed.tu);

  IrGenOptions options;
  options.openmp = flags.openmp;
  options.source_path = path;
  IrGenResult gen = generate_ir(parsed.tu, options);
  if (!gen.ok) {
    result.error = {"irgen", gen.error};
    return result;
  }

  // Target-independent cleanup only; vectorization and FMA fusion wait
  // for deployment.
  optimize(gen.module, std::min(flags.opt_level, 1));

  result.module = std::move(gen.module);
  result.ok = true;
  return result;
}

CompileToTargetResult compile_to_target(const common::Vfs& vfs,
                                        const std::string& path,
                                        const CompileFlags& flags,
                                        const TargetSpec& target) {
  CompileToTargetResult result;
  CompileToIrResult ir_result = compile_to_ir(vfs, path, flags);
  if (!ir_result.ok) {
    result.error = ir_result.error;
    return result;
  }
  result.machine = lower(std::move(ir_result.module), target);
  result.ok = true;
  return result;
}

}  // namespace xaas::minicc
