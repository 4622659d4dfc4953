// OCI-style container images (§5.2): content-addressed layers, manifests,
// annotations, and image configuration. XaaS publishes standard images,
// and proposes that the IR format become an identifying architecture
// ("llvm-ir") and that specialization points travel as annotations so
// tools can query them before pulling.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/vfs.hpp"

namespace xaas::container {

/// Architecture values: the OCI-standard ones plus the paper's proposed
/// IR architectures (§5.2 "Image Architecture and Annotations").
inline constexpr const char* kArchAmd64 = "amd64";
inline constexpr const char* kArchArm64 = "arm64";
inline constexpr const char* kArchLlvmIrAmd64 = "llvm-ir+amd64";
inline constexpr const char* kArchLlvmIrArm64 = "llvm-ir+arm64";

/// Annotation keys used by XaaS tooling.
inline constexpr const char* kAnnotationSpecPoints =
    "org.xaas.specialization-points";
inline constexpr const char* kAnnotationDeployedConfig =
    "org.xaas.deployed-configuration";
inline constexpr const char* kAnnotationBaseDigest = "org.xaas.base-digest";
inline constexpr const char* kAnnotationKind = "org.xaas.container-kind";

/// One content-addressed layer.
class Layer {
public:
  static Layer from_vfs(common::Vfs files);

  const common::Vfs& files() const { return files_; }
  const std::string& digest() const { return digest_; }
  std::size_t size_bytes() const { return size_bytes_; }

private:
  common::Vfs files_;
  std::string digest_;
  std::size_t size_bytes_ = 0;
};

/// An image: ordered layers + config + annotations. Immutable once built;
/// deriving a new image (the XaaS deployment step) produces a new digest,
/// which is exactly why the paper notes XaaS "breaks the relationship
/// between the image in the registry and the image on the system" (§5.2).
class Image {
public:
  Image() = default;

  std::string architecture = kArchAmd64;
  std::string os = "linux";
  std::vector<Layer> layers;
  std::map<std::string, std::string> annotations;
  common::Json config = common::Json::object();

  /// OCI-style manifest document (layer digests, config, annotations).
  common::Json manifest() const;

  /// Full serialization: manifest fields plus layer contents. Unlike
  /// manifest(), this round-trips — from_json(to_json()) reconstructs an
  /// image with identical layer digests, manifest, and image digest,
  /// which is what lets registries exchange images as documents without
  /// breaking the content addresses the serving-layer caches key on.
  common::Json to_json() const;

  /// Reconstruct an image from to_json() output. Throws common::JsonError
  /// on structurally invalid documents.
  static Image from_json(const common::Json& doc);

  /// Content digest of the manifest — the image identity.
  std::string digest() const;

  /// Union filesystem (later layers shadow earlier ones).
  common::Vfs flatten() const;

  /// One file of the union filesystem, without flattening: the contents
  /// in the last layer that has `path`, or nullptr.
  const std::string* find_file(std::string_view path) const;

  std::size_t total_size_bytes() const;
};

/// Convenience builder mirroring a Dockerfile: FROM base, ADD layers,
/// LABEL annotations.
class ImageBuilder {
public:
  ImageBuilder() = default;
  explicit ImageBuilder(const Image& base);

  ImageBuilder& add_layer(common::Vfs files);
  /// Add an already content-hashed layer (hashed elsewhere, e.g. on a pool).
  ImageBuilder& add_layer(Layer layer);
  ImageBuilder& annotation(const std::string& key, const std::string& value);
  ImageBuilder& architecture(const std::string& arch);
  ImageBuilder& config(const std::string& key, common::Json value);
  /// Finalize and return the image. Consumes the builder's staged state
  /// (layers can be large — a copy here is measurable in the pipeline).
  Image build();

private:
  Image image_;
};

}  // namespace xaas::container
