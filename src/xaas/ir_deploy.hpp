// IR container deployment (Fig. 8): the user selects one configuration;
// its IR files are optimized, vectorized, and lowered to the node's
// architecture; system-dependent sources are compiled on the spot; the
// build system finishes linking; a new, system-specific image results.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "container/image.hpp"
#include "minicc/lower.hpp"
#include "vm/node.hpp"
#include "xaas/source_container.hpp"

namespace xaas {

struct IrDeployOptions {
  /// Option values identifying the configuration to deploy (must match
  /// exactly one configuration baked into the image).
  std::map<std::string, std::string> selections;
  /// Vector ISA to lower for; defaults to the configuration's recorded
  /// tuning, else the node's best supported level. An explicit march the
  /// node cannot execute is a deployment error; a *recorded* tuning the
  /// node cannot execute is clamped to the node's best supported level.
  std::optional<isa::VectorIsa> march;
  int opt_level = 2;
};

/// Everything a deployment of (image, selections, node) is determined by,
/// resolved without lowering anything. Two requests with equal plans on
/// the same IR image digest produce bit-identical deployed images and
/// programs — this is the specialization-cache key contract used by
/// service::DeployScheduler.
struct IrDeployPlan {
  bool ok = false;
  std::string error;

  std::string configuration;  // selected configuration id
  minicc::TargetSpec target;  // resolved, clamped to the node's ISA ladder
  std::vector<std::string> log;
};

/// Resolve the configuration selection and lowering target for a node
/// (the cheap half of deploy_ir_container: manifest read + selection +
/// ISA clamp, no lowering, no compilation).
IrDeployPlan plan_ir_deploy(const container::Image& ir_image,
                            const vm::NodeSpec& node,
                            const IrDeployOptions& options);

/// Parsed-once deployment metadata of an IR image. Flattening the image
/// and parsing xaas/manifest.json is the dominant cost of planning, and
/// both are immutable per digest — a serving layer parses once and plans
/// many times (service::DeployScheduler keeps one per digest).
struct IrImageManifest {
  bool ok = false;
  std::string error;

  std::string architecture;  // image architecture string
  common::Json manifest;
};

IrImageManifest read_ir_image_manifest(const container::Image& ir_image);

/// Plan against a pre-parsed manifest (no flatten, no JSON parse).
IrDeployPlan plan_ir_deploy(const IrImageManifest& manifest,
                            const vm::NodeSpec& node,
                            const IrDeployOptions& options);

/// Deploy an IR container on a node. Reads everything (manifest, IR
/// files, sources, build script) from the image itself — deployment does
/// not require the original application object.
DeployedApp deploy_ir_container(const container::Image& ir_image,
                                const vm::NodeSpec& node,
                                const IrDeployOptions& options);

/// Deploy against `manifest`, parsed earlier from this same image (a
/// serving layer's per-digest copy), so the lowering parses nothing twice.
DeployedApp deploy_ir_container(const container::Image& ir_image,
                                const IrImageManifest& manifest,
                                const vm::NodeSpec& node,
                                const IrDeployOptions& options);

/// Configuration ids stored in an IR image (for tooling and tests).
/// A malformed or missing manifest yields an empty list and, when
/// `error` is non-null, a description of what was wrong with it.
std::vector<std::string> ir_image_configurations(
    const container::Image& ir_image, std::string* error = nullptr);

}  // namespace xaas
