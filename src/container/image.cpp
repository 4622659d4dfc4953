#include "container/image.hpp"

#include "common/sha256.hpp"

namespace xaas::container {

using common::Json;

Layer Layer::from_vfs(common::Vfs files) {
  Layer layer;
  common::Sha256 hasher;
  std::size_t bytes = 0;
  for (const auto& [path, contents] : files) {
    hasher.update(path);
    hasher.update("\0", 1);
    hasher.update(contents);
    hasher.update("\0", 1);
    bytes += contents.size();
  }
  layer.files_ = std::move(files);
  layer.digest_ = "sha256:" + hasher.hex_digest();
  layer.size_bytes_ = bytes;
  return layer;
}

Json Image::manifest() const {
  Json m = Json::object();
  m["schemaVersion"] = 2;
  m["mediaType"] = "application/vnd.oci.image.manifest.v1+json";
  Json platform = Json::object();
  platform["architecture"] = architecture;
  platform["os"] = os;
  m["platform"] = std::move(platform);
  m["config"] = config;
  Json layer_list = Json::array();
  for (const auto& layer : layers) {
    Json entry = Json::object();
    entry["digest"] = layer.digest();
    entry["size"] = layer.size_bytes();
    layer_list.push_back(std::move(entry));
  }
  m["layers"] = std::move(layer_list);
  Json ann = Json::object();
  for (const auto& [key, value] : annotations) ann[key] = value;
  m["annotations"] = std::move(ann);
  return m;
}

std::string Image::digest() const {
  return "sha256:" + common::sha256_hex(manifest().dump());
}

Json Image::to_json() const {
  Json doc = Json::object();
  doc["architecture"] = architecture;
  doc["os"] = os;
  doc["config"] = config;
  Json ann = Json::object();
  for (const auto& [key, value] : annotations) ann[key] = value;
  doc["annotations"] = std::move(ann);
  Json layer_list = Json::array();
  for (const auto& layer : layers) {
    Json entry = Json::object();
    entry["digest"] = layer.digest();
    Json files = Json::object();
    for (const auto& [path, contents] : layer.files()) {
      files[path] = contents;
    }
    entry["files"] = std::move(files);
    layer_list.push_back(std::move(entry));
  }
  doc["layers"] = std::move(layer_list);
  return doc;
}

Image Image::from_json(const Json& doc) {
  Image image;
  image.architecture = doc.get_string("architecture", kArchAmd64);
  image.os = doc.get_string("os", "linux");
  if (const Json* config = doc.find("config")) image.config = *config;
  if (const Json* ann = doc.find("annotations")) {
    for (const auto& [key, value] : ann->as_object()) {
      image.annotations[key] = value->as_string();
    }
  }
  if (const Json* layer_list = doc.find("layers")) {
    for (const auto& entry : layer_list->items()) {
      common::Vfs files;
      if (const Json* file_map = entry.find("files")) {
        for (const auto& [path, contents] : file_map->as_object()) {
          files.write(path, contents->as_string());
        }
      }
      Layer layer = Layer::from_vfs(std::move(files));
      // Content addressing is recomputed, never trusted: a document whose
      // recorded digest disagrees with its content is corrupt.
      const std::string recorded = entry.get_string("digest");
      if (!recorded.empty() && recorded != layer.digest()) {
        throw common::JsonError("layer digest mismatch: recorded " + recorded +
                                ", content hashes to " + layer.digest());
      }
      image.layers.push_back(std::move(layer));
    }
  }
  return image;
}

common::Vfs Image::flatten() const {
  common::Vfs result;
  for (const auto& layer : layers) {
    result.overlay(layer.files());
  }
  return result;
}

const std::string* Image::find_file(std::string_view path) const {
  for (auto layer = layers.rbegin(); layer != layers.rend(); ++layer) {
    if (const std::string* contents = layer->files().find(path)) {
      return contents;
    }
  }
  return nullptr;
}

std::size_t Image::total_size_bytes() const {
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.size_bytes();
  return total;
}

ImageBuilder::ImageBuilder(const Image& base) : image_(base) {
  image_.annotations[kAnnotationBaseDigest] = base.digest();
}

ImageBuilder& ImageBuilder::add_layer(common::Vfs files) {
  return add_layer(Layer::from_vfs(std::move(files)));
}

ImageBuilder& ImageBuilder::add_layer(Layer layer) {
  image_.layers.push_back(std::move(layer));
  return *this;
}

ImageBuilder& ImageBuilder::annotation(const std::string& key,
                                       const std::string& value) {
  image_.annotations[key] = value;
  return *this;
}

ImageBuilder& ImageBuilder::architecture(const std::string& arch) {
  image_.architecture = arch;
  return *this;
}

ImageBuilder& ImageBuilder::config(const std::string& key, Json value) {
  image_.config[key] = std::move(value);
  return *this;
}

Image ImageBuilder::build() {
  return std::move(image_);
}

}  // namespace xaas::container
