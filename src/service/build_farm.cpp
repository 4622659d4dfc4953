#include "service/build_farm.hpp"

#include <functional>

#include "common/hashing.hpp"
#include "service/distribution.hpp"
#include "service/fault.hpp"
#include "vm/decoded.hpp"

namespace xaas::service {

BuildFarm::BuildFarm(ShardedRegistry& registry, BuildFarmOptions options)
    : registry_(registry),
      options_(options),
      spec_tier_(make_artifact_tier<SpecCodec>(options.artifact_store,
                                               options.distribution)),
      tu_tier_(make_artifact_tier<TuCodec>(options.artifact_store,
                                           options.distribution)),
      pool_(options.threads) {
  cache_.set_tier(spec_tier_.get());
}

void BuildFarm::set_tu_observer(common::CacheObserver observer) {
  tu_observer_ = std::move(observer);
}

std::shared_ptr<const BuildFarm::ImageState> BuildFarm::state_for(
    const std::string& digest, const container::Image& image) {
  return states_.get_or_compute(digest, [&] {
    auto state = std::make_shared<ImageState>();
    SourceImageApp from_image = application_from_source_image(image);
    if (!from_image.ok) {
      state->app_error = from_image.error;
      return std::shared_ptr<const ImageState>(std::move(state));
    }
    state->app =
        std::make_shared<const Application>(std::move(from_image.app));
    state->tu_cache = std::make_shared<minicc::CompileCache>();
    if (tu_observer_) state->tu_cache->set_observer(tu_observer_);
    // TU keys are image-independent (post-preprocess hash pins the
    // content), so every per-image cache shares one persistent tier.
    state->tu_cache->set_tier(tu_tier_.get());
    // minicc cannot depend on the serving layer, so the fault plan is
    // bridged in via the cache's generic hook: flaky TU builds keyed by
    // source path (the k-th build attempt of one TU fails or not,
    // deterministically per seed).
    state->tu_cache->set_fault_hook(
        [](const minicc::TuKey& key) -> std::optional<std::string> {
          if (XAAS_FAULT_POINT(fault::kTuBuild, key.source)) {
            return "injected TU build fault: " + key.source;
          }
          return std::nullopt;
        });
    return std::shared_ptr<const ImageState>(std::move(state));
  });
}

FleetDeployResult BuildFarm::deploy(const SourceDeployRequest& request) {
  FleetDeployResult result;
  const auto prepared = prepare(request, result);
  if (!prepared) return result;
  detail::complete(result,
                   cache_.get_or_deploy(
                       prepared->key, [&] { return build(*prepared); },
                       &result.cache_hit));
  return result;
}

void BuildFarm::deploy_into(const SourceDeployRequest& request,
                            detail::DeployPromise promise) {
  FleetDeployResult result;
  const auto prepared = prepare(request, result);
  if (!prepared) {
    promise->set_value(std::move(result));
    return;
  }
  cache_.get_or_deploy_then(prepared->key, [&] { return build(*prepared); },
                            detail::fulfil(std::move(result),
                                           std::move(promise)));
}

std::optional<BuildFarm::Prepared> BuildFarm::prepare(
    const SourceDeployRequest& request, FleetDeployResult& result) {
  result.node_name = request.node.name;
  result.node = request.node;

  const auto digest = registry_.resolve(request.image_reference);
  if (!digest) {
    result.code = ErrorCode::NotFound;
    result.error = "image not found in registry: " + request.image_reference;
    return std::nullopt;
  }
  Prepared prepared;
  prepared.image = registry_.pull(*digest);  // shared, no layer copy

  prepared.state = state_for(*digest, *prepared.image);
  if (!prepared.state->app) {
    // Reconstruction failures are a property of the image content:
    // deterministic, retrying cannot help.
    result.code = ErrorCode::DeployFailed;
    result.error = prepared.state->app_error;
    return std::nullopt;
  }

  // The cheap, node-specific half: discovery, intersection, selection,
  // configure, target resolution. Failures never reach the caches.
  prepared.plan = plan_source_deploy(*prepared.image, *prepared.state->app,
                                     request.node, request.options);
  if (!prepared.plan.ok) {
    // Plan failures are deterministic (bad selection, march beyond the
    // node): not transient, retrying cannot help.
    result.code = ErrorCode::DeployFailed;
    result.error = prepared.plan.error;
    return std::nullopt;
  }
  result.configuration = prepared.plan.configuration.id();

  // Whole-deployment key: build_source_deploy is a pure function of
  // (source image, resolved option values, target) — the node only
  // contributed to resolving the plan.
  prepared.key.digest = *digest;
  prepared.key.selections =
      common::canonical_selections(prepared.plan.configuration.option_values);
  prepared.key.target = prepared.plan.target;
  return prepared;
}

std::shared_ptr<const DeployedApp> BuildFarm::build(const Prepared& prepared) {
  auto deployed = std::make_shared<DeployedApp>(
      build_source_deploy(*prepared.image, *prepared.state->app,
                          prepared.plan, prepared.state->tu_cache.get()));
  if (deployed->ok) {
    deployed->decoded = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::build(deployed->program));
  }
  return deployed;
}

std::future<FleetDeployResult> BuildFarm::submit(SourceDeployRequest request) {
  return detail::enqueue_deploy(
      pool_, [this, request = std::move(request)](
                 detail::DeployPromise promise) {
        deploy_into(request, std::move(promise));
      });
}

std::vector<FleetDeployResult> BuildFarm::deploy_batch(
    std::vector<SourceDeployRequest> requests) {
  std::vector<std::future<FleetDeployResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  return detail::collect_deploys(std::move(futures));
}

std::size_t BuildFarm::sum_tu(
    std::size_t (minicc::CompileCache::*stat)() const) const {
  std::size_t total = 0;
  for (const auto& state : states_.values()) {
    if (state->tu_cache) total += std::invoke(stat, *state->tu_cache);
  }
  return total;
}

std::size_t BuildFarm::tu_compiles() const {
  return sum_tu(&minicc::CompileCache::tu_compiles);
}

std::size_t BuildFarm::tu_cache_hits() const {
  return sum_tu(&minicc::CompileCache::tu_hits);
}

}  // namespace xaas::service
