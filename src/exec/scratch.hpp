#pragma once

#include <memory>
#include <memory_resource>
#include <typeindex>
#include <unordered_map>
#include <utility>

namespace hp::exec {

/// Per-worker bag of long-lived scratch objects, keyed by type. A campaign
/// worker creates one WorkerScratch over its node-local memory resource;
/// schedulers and simulators then borrow their workspaces from it via
/// `slot<T>()` instead of owning fresh copies per run. The first request
/// for a T constructs it (passing the worker's memory_resource* when T has
/// such a constructor, so its buffers land in the arena); later requests —
/// including from the next run on this worker — return the same object.
///
/// Only types whose state is fully overwritten before use may live here:
/// sharing a slot across runs must be observationally identical to a fresh
/// object, or campaign determinism across --jobs breaks. Workspaces
/// (ThermalWorkspace, PeakWorkspace) qualify; HotPotato's prediction cache
/// does not — its hit/miss counters would depend on worker run history.
///
/// Not thread-safe; each worker owns its own WorkerScratch.
class WorkerScratch {
public:
    explicit WorkerScratch(
        std::pmr::memory_resource* mr = std::pmr::get_default_resource())
        : mr_(mr) {}

    WorkerScratch(const WorkerScratch&) = delete;
    WorkerScratch& operator=(const WorkerScratch&) = delete;

    /// The memory resource scratch objects should allocate from (the
    /// worker's node-local arena, or the default resource when the worker
    /// runs without one).
    std::pmr::memory_resource* resource() const { return mr_; }

    /// Returns the worker's instance of T, constructing it on first use —
    /// with the worker's memory_resource* when T is constructible from one,
    /// default-constructed otherwise.
    template <typename T>
    T& slot() {
        auto it = slots_.find(std::type_index(typeid(T)));
        if (it == slots_.end()) {
            std::unique_ptr<T> obj;
            if constexpr (std::is_constructible_v<T,
                                                  std::pmr::memory_resource*>) {
                obj = std::make_unique<T>(mr_);
            } else {
                obj = std::make_unique<T>();
            }
            it = slots_
                     .emplace(std::type_index(typeid(T)),
                              Holder{obj.release(), [](void* p) {
                                         delete static_cast<T*>(p);
                                     }})
                     .first;
        }
        return *static_cast<T*>(it->second.ptr);
    }

    ~WorkerScratch() {
        for (auto& [key, holder] : slots_) holder.destroy(holder.ptr);
    }

private:
    struct Holder {
        void* ptr;
        void (*destroy)(void*);
    };

    std::pmr::memory_resource* mr_;
    std::unordered_map<std::type_index, Holder> slots_;
};

}  // namespace hp::exec
