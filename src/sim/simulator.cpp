#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace hp::sim {

double SimResult::average_response_time_s() const {
    if (tasks.empty()) return 0.0;
    double acc = 0.0;
    for (const TaskResult& t : tasks) acc += t.response_time_s();
    return acc / static_cast<double>(tasks.size());
}

double SimResult::response_time_percentile_s(double p) const {
    if (p < 0.0 || p > 100.0)
        throw std::invalid_argument(
            "response_time_percentile_s: p must be in [0, 100]");
    if (tasks.empty()) return 0.0;
    std::vector<double> times;
    times.reserve(tasks.size());
    for (const TaskResult& t : tasks) times.push_back(t.response_time_s());
    std::sort(times.begin(), times.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(times.size())));
    return times[rank == 0 ? 0 : rank - 1];
}

Simulator::Simulator(const arch::ManyCore& chip,
                     const thermal::ThermalModel& model,
                     const thermal::TransientSolver& solver,
                     SimConfig config,
                     power::PowerParams power_params,
                     perf::PerfParams perf_params,
                     thermal::ThermalWorkspace* workspace,
                     obs::Recorder* recorder,
                     const CancellationToken* cancel,
                     exec::WorkerScratch* scratch)
    : chip_(&chip),
      thermal_(&model),
      solver_(&solver),
      config_(config),
      power_model_(power_params, chip.dvfs()),
      perf_model_(chip, perf_params),
      cancel_(cancel),
      scratch_(scratch),
      obs_(recorder),
      ws_(workspace != nullptr ? workspace : &own_ws_) {
    if (model.core_count() != chip.core_count())
        throw std::invalid_argument(
            "Simulator: thermal model and chip disagree on core count");
    if (solver.model_signature() != model.signature())
        throw std::invalid_argument(
            "Simulator: thermal solver built for a different thermal model");
    if (const std::vector<std::string> violations = config_.validate();
        !violations.empty()) {
        std::string msg = "Simulator: invalid configuration:";
        for (const std::string& v : violations) msg += "\n  - " + v;
        throw std::invalid_argument(msg);
    }

    const std::size_t n = chip.core_count();
    set_frequency_hz_.assign(n, chip.dvfs().f_max_hz);
    last_core_power_w_.assign(n, 0.0);
    core_occupant_.assign(n, kNone);
    core_idle_since_s_.assign(n, 0.0);
    core_gated_.assign(n, false);
    noc_delay_s_.assign(n, 0.0);
    // Ambient equilibrium: the steady state with every node unpowered.
    temps_ = solver.steady_state(linalg::Vector(model.node_count()),
                                 config_.ambient_c);
    step_power_ = linalg::Vector(n);
    node_power_ = linalg::Vector(model.node_count());
    ws_->resize(model.node_count());

    // A fault schedule implies sensor-driven DTM (sensor faults need sensors
    // to corrupt) with the voting filter armed, plus the runaway watchdog.
    const bool injecting = !config_.fault_schedule.empty();
    if (injecting && !config_.sensor_params.vote_filter)
        config_.sensor_params.vote_filter = true;
    watchdog_enabled_ = config_.thermal_watchdog || injecting;
    if (config_.dtm_uses_sensors || injecting) {
        sensors_ = std::make_unique<thermal::SensorBank>(
            n, config_.sensor_params);
        // Voting topology: mesh neighbours plus stacked (TSV) neighbours.
        std::vector<std::vector<std::size_t>> neighbors(n);
        for (std::size_t c = 0; c < n; ++c) {
            neighbors[c] = chip.plan().neighbors(c);
            for (std::size_t s : chip.plan().stack_neighbors(c))
                neighbors[c].push_back(s);
        }
        sensors_->set_neighbors(std::move(neighbors));
    }
    if (injecting) {
        injector_ = std::make_unique<fault::FaultInjector>(
            config_.fault_schedule, n, config_.fault_seed);
        sensors_->set_corruptor(
            [this](std::size_t sensor, double reading, double now_s) {
                return injector_->corrupt_reading(sensor, reading, now_s);
            });
    }
    if (obs_) {
        // Instrument registration happens here, once; the micro-step only
        // touches the cached pointers and the preallocated trace ring.
        obs_steps_ = &obs_->counter("sim.steps");
        const double t = config_.t_dtm_c;
        obs_step_peak_ = &obs_->histogram(
            "sim.step_peak_c",
            {t - 20.0, t - 10.0, t - 5.0, t - 2.0, t, t + 5.0});
        if (injector_)
            injector_->set_corruption_counter(
                &obs_->counter("fault.sensor_corruptions"));
    }
    if (config_.model_noc_contention) {
        noc::NocParams noc_params;
        noc_params.hop_latency_s = chip.params().noc_hop_latency_s;
        noc_params.link_width_bits = chip.params().noc_link_width_bits;
        noc_ = std::make_unique<noc::MeshNoc>(chip.plan(), noc_params);
        traffic_ = std::make_unique<noc::TrafficModel>(*noc_);
    }
}

void Simulator::refresh_noc_contention() {
    if (!traffic_) return;
    const std::size_t n = chip_->core_count();
    noc_rates_.assign(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        const ThreadId id = core_occupant_[c];
        if (id == kNone) continue;
        const Thread& t = threads_[id];
        if (!thread_active_this_phase(t) || now_ < t.stall_until_s) continue;
        const perf::PhasePoint& point = thread_phase_point(id);
        const double ips = perf_model_.instructions_per_second(
            point, c, effective_frequency(c), noc_delay_s_[c]);
        noc_rates_[c] = ips * point.llc_apki / 1000.0;
    }
    traffic_->queueing_delay_into(noc_rates_, noc_delay_s_);
}

void Simulator::add_task(const workload::TaskSpec& spec) {
    if (ran_) throw std::logic_error("Simulator: add_task after run");
    if (spec.profile == nullptr)
        throw std::invalid_argument("Simulator: task without profile");
    if (spec.thread_count == 0 || spec.thread_count > chip_->core_count())
        throw std::invalid_argument(
            "Simulator: task thread count must be in [1, core_count]");
    specs_.push_back(spec);
}

void Simulator::add_tasks(const std::vector<workload::TaskSpec>& specs) {
    for (const auto& s : specs) add_task(s);
}

void Simulator::check_core(std::size_t core) const {
    if (core >= chip_->core_count())
        throw std::out_of_range("Simulator: core index out of range");
}

double Simulator::core_temperature(std::size_t core) const {
    check_core(core);
    return temps_[core];
}

double Simulator::sensor_reading(std::size_t core) const {
    check_core(core);
    return sensors_ ? sensors_->readings()[core] : temps_[core];
}

bool Simulator::core_available(std::size_t core) const {
    check_core(core);
    return !(injector_ && injector_->core_failed(core));
}

std::vector<std::size_t> Simulator::failed_cores() const {
    std::vector<std::size_t> out;
    if (!injector_) return out;
    for (std::size_t c = 0; c < chip_->core_count(); ++c)
        if (injector_->core_failed(c)) out.push_back(c);
    return out;
}

bool Simulator::sensor_trusted(std::size_t core) const {
    check_core(core);
    return !sensors_ || sensors_->trusted()[core];
}

std::size_t Simulator::untrusted_sensor_count() const {
    return sensors_ ? sensors_->untrusted_count() : 0;
}

ThreadId Simulator::thread_on(std::size_t core) const {
    check_core(core);
    return core_occupant_[core];
}

std::size_t Simulator::core_of(ThreadId thread) const {
    if (thread >= thread_core_.size()) return kNone;
    return thread_core_[thread];
}

std::vector<std::size_t> Simulator::free_cores() const {
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < core_occupant_.size(); ++c)
        if (core_occupant_[c] == kNone && core_available(c)) out.push_back(c);
    return out;
}

const Task& Simulator::task(TaskId id) const {
    if (id >= tasks_.size()) throw std::out_of_range("Simulator: bad task id");
    return tasks_[id];
}

const Thread& Simulator::thread(ThreadId id) const {
    if (id >= threads_.size())
        throw std::out_of_range("Simulator: bad thread id");
    return threads_[id];
}

double Simulator::frequency(std::size_t core) const {
    check_core(core);
    return set_frequency_hz_[core];
}

double Simulator::core_power(std::size_t core) const {
    check_core(core);
    return last_core_power_w_[core];
}

double Simulator::thread_recent_power(ThreadId id) const {
    return thread(id).recent_power_w;
}

double Simulator::thread_cpi(ThreadId id) const { return thread(id).current_cpi; }

const perf::PhasePoint& Simulator::thread_phase_point(ThreadId id) const {
    const Thread& t = thread(id);
    const Task& tk = task(t.task);
    const std::size_t phase = std::min(tk.phase, tk.profile->phases.size() - 1);
    return tk.profile->phases[phase].perf;
}

double Simulator::estimate_thread_power(ThreadId id, std::size_t core,
                                        double freq_hz) const {
    check_core(core);
    const perf::PhasePoint& point = thread_phase_point(id);
    const double activity = perf_model_.power_activity(
        point, core, freq_hz, power_model_.params().f_ref_hz);
    // Leakage is evaluated at the DTM threshold: the estimate feeds
    // thermal-safety decisions and must not be optimistic about leakage.
    return power_model_.active_power_w(point.nominal_power_w, freq_hz, activity,
                                       config_.t_dtm_c);
}

void Simulator::set_frequency(std::size_t core, double f_hz) {
    check_core(core);
    const double quantized = chip_->dvfs().quantize_down(f_hz);
    if (obs_ && quantized != set_frequency_hz_[core])
        obs_->record({now_, obs::EventKind::kDvfsChange,
                      static_cast<std::uint32_t>(core), 0, quantized});
    set_frequency_hz_[core] = quantized;
}

void Simulator::place(ThreadId id, std::size_t core) {
    check_core(core);
    if (!core_available(core))
        throw std::logic_error("Simulator::place: core is offline");
    Thread& t = threads_.at(id);
    if (thread_core_[id] != kNone)
        throw std::logic_error("Simulator::place: thread already placed");
    if (core_occupant_[core] != kNone)
        throw std::logic_error("Simulator::place: core occupied");
    core_occupant_[core] = id;
    thread_core_[id] = core;
    occupant_arrived(core, id);
    if (t.recent_power_w == 0.0)
        t.recent_power_w =
            estimate_thread_power(id, core, set_frequency_hz_[core]);
}

void Simulator::migrate(ThreadId id, std::size_t core) {
    check_core(core);
    if (!core_available(core))
        throw std::logic_error("Simulator::migrate: destination is offline");
    if (thread_core_.at(id) == kNone)
        throw std::logic_error("Simulator::migrate: thread not placed");
    if (core_occupant_[core] != kNone)
        throw std::logic_error("Simulator::migrate: destination occupied");
    const std::size_t src = thread_core_[id];
    if (src == core) return;
    core_occupant_[src] = kNone;
    core_vacated(src);
    core_occupant_[core] = id;
    thread_core_[id] = core;
    threads_[id].stall_until_s =
        std::max(threads_[id].stall_until_s,
                 now_ + perf_model_.migration_stall_s(core));
    occupant_arrived(core, id);
    ++result_.migrations;
    if (obs_)
        obs_->record({now_, obs::EventKind::kMigration,
                      static_cast<std::uint32_t>(id),
                      static_cast<std::uint32_t>(core), 0.0});
}

void Simulator::rotate(const std::vector<std::size_t>& cores_in_cycle) {
    if (cores_in_cycle.size() < 2) return;
    for (std::size_t c : cores_in_cycle) check_core(c);
    if (injector_) {
        if (injector_->consume_rotation_abort(now_)) {
            ++result_.resilience.rotation_aborts;
            if (obs_)
                obs_->record({now_, obs::EventKind::kRotationAbort,
                              static_cast<std::uint32_t>(cores_in_cycle.size()),
                              static_cast<std::uint32_t>(cores_in_cycle[0]),
                              0.0});
            return;  // the rotation aborts mid-flight: mapping unchanged
        }
        // Defensive: never rotate a thread onto a dead core. The scheduler is
        // notified of failures before its step hook, so a cycle through an
        // offline core means it has not re-formed its rings yet — skip.
        for (std::size_t c : cores_in_cycle)
            if (injector_->core_failed(c)) return;
    }
    // Shift occupants (threads and holes alike) by one position. The scratch
    // vector is reused across rotations (they happen nearly every step under
    // fast rotation).
    const std::size_t k = cores_in_cycle.size();
    if (obs_)
        obs_->record({now_, obs::EventKind::kRotation,
                      static_cast<std::uint32_t>(k),
                      static_cast<std::uint32_t>(cores_in_cycle[0]), 0.0});
    rotate_scratch_.resize(k);
    std::vector<ThreadId>& occupants = rotate_scratch_;
    for (std::size_t i = 0; i < k; ++i)
        occupants[i] = core_occupant_[cores_in_cycle[i]];
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t dest = cores_in_cycle[(i + 1) % k];
        const ThreadId id = occupants[i];
        const ThreadId previous = occupants[(i + 1) % k];
        core_occupant_[dest] = id;
        if (id != kNone) {
            thread_core_[id] = dest;
            threads_[id].stall_until_s =
                std::max(threads_[id].stall_until_s,
                         now_ + perf_model_.migration_stall_s(dest));
            occupant_arrived(dest, id);
            ++result_.migrations;
        } else if (previous != kNone) {
            core_vacated(dest);  // a hole rotated onto this core
        }
    }
}

void Simulator::occupant_arrived(std::size_t core, ThreadId id) {
    if (!core_gated_[core]) return;
    core_gated_[core] = false;
    // Rail ramp + state restore serialises after any other pending stall.
    Thread& t = threads_[id];
    t.stall_until_s = std::max(now_, t.stall_until_s) +
                      power_model_.params().wakeup_latency_s;
}

void Simulator::core_vacated(std::size_t core) {
    core_idle_since_s_[core] = now_;
}

bool Simulator::thread_active_this_phase(const Thread& t) const {
    return !t.finished && t.remaining_instructions > 0.0;
}

double Simulator::effective_frequency(std::size_t core) const {
    return dtm_active_ || watchdog_active_ ? chip_->dvfs().f_min_hz
                                           : set_frequency_hz_[core];
}

const linalg::Vector& Simulator::compute_step_power() {
    const std::size_t n = chip_->core_count();
    // Every element is written below (failed cores included), so the reused
    // buffer needs no zero-fill.
    linalg::Vector& core_power = step_power_;
    const power::PowerParams& pwr = power_model_.params();
    for (std::size_t c = 0; c < n; ++c) {
        if (injector_ && injector_->core_failed(c)) {
            // Fail-stop: a dead core is power-cut (its occupant was evicted
            // when the fault landed).
            core_power[c] = 0.0;
            last_core_power_w_[c] = 0.0;
            continue;
        }
        const ThreadId id = core_occupant_[c];
        double watts = power_model_.idle_power_w(temps_[c]);
        if (id == kNone && pwr.power_gating) {
            if (!core_gated_[c] &&
                now_ - core_idle_since_s_[c] >= pwr.gate_after_idle_s)
                core_gated_[c] = true;
            if (core_gated_[c]) watts = pwr.gated_power_w;
        }
        if (id != kNone) {
            Thread& t = threads_[id];
            const bool stalled = now_ < t.stall_until_s;
            if (thread_active_this_phase(t) && !stalled) {
                const double f = effective_frequency(c);
                const perf::PhasePoint& point = thread_phase_point(id);
                const double activity = perf_model_.power_activity(
                    point, c, f, power_model_.params().f_ref_hz);
                watts = power_model_.active_power_w(point.nominal_power_w, f,
                                                    activity, temps_[c]);
                t.current_cpi =
                    perf_model_.effective_cpi(point, c, f, noc_delay_s_[c]);
            } else {
                t.current_cpi = 0.0;
            }
            t.current_power_w = watts;
        }
        core_power[c] = watts;
        last_core_power_w_[c] = watts;
    }
    return core_power;
}

void Simulator::advance_progress(double dt) {
    for (Thread& t : threads_) {
        if (t.finished || t.remaining_instructions <= 0.0) continue;
        const std::size_t core = thread_core_[t.id];
        if (core == kNone) continue;
        // Fraction of the step the thread is not migration-stalled.
        double run_fraction = 1.0;
        if (now_ + dt <= t.stall_until_s) {
            run_fraction = 0.0;
        } else if (now_ < t.stall_until_s) {
            run_fraction = (now_ + dt - t.stall_until_s) / dt;
        }
        if (run_fraction <= 0.0) continue;
        const double f = effective_frequency(core);
        const perf::PhasePoint& point = thread_phase_point(t.id);
        const double ips = perf_model_.instructions_per_second(
            point, core, f, noc_delay_s_[core]);
        t.remaining_instructions =
            std::max(0.0, t.remaining_instructions - ips * dt * run_fraction);
    }
    // Sliding-average power history (exponential window).
    const double alpha =
        std::min(1.0, dt / std::max(dt, config_.power_history_window_s));
    for (Thread& t : threads_) {
        if (thread_core_.size() > t.id && thread_core_[t.id] != kNone)
            t.recent_power_w += alpha * (t.current_power_w - t.recent_power_w);
    }
}

void Simulator::assign_phase_budgets(Task& task) {
    const auto& phases = task.profile->phases;
    // Skip degenerate all-idle phases outright.
    while (task.phase < phases.size()) {
        const workload::PhaseSpec& p = phases[task.phase];
        const bool has_work =
            p.master_instructions > 0.0 ||
            (task.thread_count > 1 && p.worker_instructions > 0.0);
        if (has_work) break;
        ++task.phase;
    }
    if (task.phase >= phases.size()) return;
    const workload::PhaseSpec& p = phases[task.phase];
    for (ThreadId id : task.threads) {
        Thread& t = threads_[id];
        t.remaining_instructions =
            t.role == 0 ? p.master_instructions : p.worker_instructions;
    }
}

void Simulator::resolve_phases_and_completions(Scheduler& scheduler) {
    for (Task& task : tasks_) {
        if (!task.placed || task.finished) continue;
        bool phase_done = true;
        for (ThreadId id : task.threads)
            if (threads_[id].remaining_instructions > 0.0) {
                phase_done = false;
                break;
            }
        if (!phase_done) continue;

        ++task.phase;
        assign_phase_budgets(task);
        if (task.phase < task.profile->phases.size()) continue;

        // Task complete: free its cores, record, notify.
        task.finished = true;
        task.finish_s = now_;
        for (ThreadId id : task.threads) {
            Thread& t = threads_[id];
            t.finished = true;
            const std::size_t core = thread_core_[id];
            if (core != kNone) {
                core_occupant_[core] = kNone;
                core_vacated(core);
                thread_core_[id] = kNone;
            }
        }
        result_.tasks.push_back(TaskResult{task.id, task.profile->name,
                                           task.thread_count, task.arrival_s,
                                           task.start_s, task.finish_s,
                                           task_energy_j_[task.id]});
        if (obs_)
            obs_->record({now_, obs::EventKind::kTaskFinish,
                          static_cast<std::uint32_t>(task.id), 0,
                          task.finish_s - task.arrival_s});
        scheduler.on_task_finish(*this, task.id);
        offer_pending(scheduler);
    }
}

void Simulator::offer_pending(Scheduler& scheduler) {
    for (std::size_t attempts = pending_.size(); attempts > 0; --attempts) {
        const TaskId id = pending_.front();
        pending_.pop_front();
        if (scheduler.on_task_arrival(*this, id)) {
            Task& t = tasks_[id];
            t.placed = true;
            t.start_s = now_;
            assign_phase_budgets(t);
            if (obs_)
                obs_->record({now_, obs::EventKind::kTaskStart,
                              static_cast<std::uint32_t>(id),
                              static_cast<std::uint32_t>(t.thread_count), 0.0});
        } else {
            pending_.push_back(id);
            break;  // keep FIFO order: don't let later tasks jump the queue
        }
    }
}

void Simulator::update_dtm() {
    double max_core = -1e300;
    for (std::size_t c = 0; c < chip_->core_count(); ++c)
        max_core = std::max(max_core, temps_[c]);
    result_.peak_temperature_c = std::max(result_.peak_temperature_c, max_core);
    if (obs_step_peak_) obs_step_peak_->observe(max_core);
    if (sensors_) {
        // Hardware DTM sees the sensors, not ground truth — but it trusts
        // the vote-masked estimate, so one lying diode can neither blind nor
        // panic it. Without the vote filter masked == filtered readings.
        if (sensor_temps_.size() != chip_->core_count())
            sensor_temps_ = linalg::Vector(chip_->core_count());
        for (std::size_t c = 0; c < chip_->core_count(); ++c)
            sensor_temps_[c] = temps_[c];
        sensors_->observe(sensor_temps_, now_);
        max_core = sensors_->max_masked_reading();
        if (injector_)
            result_.resilience.untrusted_sensor_samples +=
                sensors_->untrusted_count();
    }
    if (!dtm_active_ && max_core > config_.t_dtm_c) {
        dtm_active_ = true;
        ++result_.dtm_triggers;
        if (obs_)
            obs_->record({now_, obs::EventKind::kDtmEngage, 0, 0, max_core});
    } else if (dtm_active_ &&
               max_core < config_.t_dtm_c - config_.dtm_hysteresis_c) {
        dtm_active_ = false;
        if (obs_)
            obs_->record({now_, obs::EventKind::kDtmRelease, 0, 0, max_core});
    }
}

void Simulator::apply_faults(Scheduler& scheduler) {
    if (!injector_) return;
    fault_started_.clear();
    fault_ended_.clear();
    std::vector<fault::FaultEvent>& started = fault_started_;
    std::vector<fault::FaultEvent>& ended = fault_ended_;
    injector_->advance(now_, &started, &ended);

    if (obs_) {
        for (const fault::FaultEvent& e : started)
            obs_->record({now_, obs::EventKind::kFaultStart,
                          static_cast<std::uint32_t>(e.kind),
                          static_cast<std::uint32_t>(e.target), 0.0});
        for (const fault::FaultEvent& e : ended)
            obs_->record({now_, obs::EventKind::kFaultEnd,
                          static_cast<std::uint32_t>(e.kind),
                          static_cast<std::uint32_t>(e.target), 0.0});
    }

    for (const fault::FaultEvent& e : started) {
        switch (e.kind) {
            case fault::FaultKind::kCorePermanent:
            case fault::FaultKind::kCoreTransient: {
                ++result_.resilience.core_failures;
                const std::size_t core = e.target;
                std::vector<ThreadId> evicted;
                const ThreadId occupant = core_occupant_[core];
                if (occupant != kNone) {
                    core_occupant_[core] = kNone;
                    thread_core_[occupant] = kNone;
                    evicted.push_back(occupant);
                }
                core_gated_[core] = false;
                scheduler.on_core_failure(*this, core, evicted);
                for (ThreadId id : evicted) {
                    if (thread_core_[id] != kNone)
                        ++result_.resilience.threads_replaced;
                    else
                        ++result_.resilience.threads_stranded;
                }
                break;
            }
            case fault::FaultKind::kSensorStuck:
            case fault::FaultKind::kSensorDrift:
            case fault::FaultKind::kSensorSpike:
            case fault::FaultKind::kSensorDropout:
                ++result_.resilience.sensor_faults;
                break;
            case fault::FaultKind::kRotationAbort:
                break;  // counted only when a rotation actually drops
        }
    }

    for (const fault::FaultEvent& e : ended) {
        if (e.kind != fault::FaultKind::kCoreTransient) continue;
        core_vacated(e.target);
        scheduler.on_core_recovery(*this, e.target);
        offer_pending(scheduler);  // regained capacity may unblock the queue
    }
    result_.resilience.faults_injected = injector_->injected_count();
}

void Simulator::update_watchdog() {
    if (!watchdog_enabled_) return;
    double truth_max = -1e300;
    for (std::size_t c = 0; c < chip_->core_count(); ++c)
        truth_max = std::max(truth_max, temps_[c]);
    // The watchdog is an independent protection circuit: it monitors its own
    // (trusted) reference above the DTM threshold and crashes the chip to
    // f_min until the DTM release point — the backstop when deceived sensors
    // keep the regular DTM asleep.
    if (!watchdog_active_ &&
        truth_max > config_.t_dtm_c + config_.watchdog_margin_c) {
        watchdog_active_ = true;
        watchdog_engaged_s_ = now_;
        ++result_.resilience.watchdog_triggers;
        if (obs_)
            obs_->record(
                {now_, obs::EventKind::kWatchdogTrip, 0, 0, truth_max});
    } else if (watchdog_active_ &&
               truth_max < config_.t_dtm_c - config_.dtm_hysteresis_c) {
        watchdog_active_ = false;
        result_.resilience.worst_recovery_s =
            std::max(result_.resilience.worst_recovery_s,
                     now_ - watchdog_engaged_s_);
        if (obs_)
            obs_->record({now_, obs::EventKind::kWatchdogRelease, 0, 0,
                          now_ - watchdog_engaged_s_});
    }
    if (truth_max > config_.t_dtm_c)
        result_.resilience.thermal_violation_s += config_.micro_step_s;
    if (injector_ && injector_->active_fault_count() > 0)
        result_.resilience.peak_during_fault_c =
            std::max(result_.resilience.peak_during_fault_c, truth_max);
}

void Simulator::check_temperatures_sane() const {
    const double bound =
        std::max(config_.max_sane_temperature_c, config_.t_dtm_c + 50.0);
    for (std::size_t i = 0; i < temps_.size(); ++i) {
        const double t = temps_[i];
        if (std::isfinite(t) && t <= bound) continue;
        const std::size_t cores = chip_->core_count();
        const std::string node =
            i < cores ? "core " + std::to_string(i)
                      : "node " + std::to_string(i) + " (non-core)";
        if (obs_)
            obs_->record({now_, obs::EventKind::kDivergence,
                          static_cast<std::uint32_t>(i), 0, t});
        throw ThermalDivergenceError(
            "Simulator: thermal divergence at t=" + std::to_string(now_) +
            " s: " + node + " reached " + std::to_string(t) +
            " C (sanity bound " + std::to_string(bound) +
            " C) — non-finite or runaway temperatures indicate divergent "
            "inputs (power, thermal model) rather than a physical run");
    }
}

void Simulator::record_trace_sample() {
    const std::size_t n = chip_->core_count();
    TraceSample s;
    s.time_s = now_;
    s.core_temperature_c.resize(n);
    s.core_power_w.resize(n);
    s.core_frequency_hz.resize(n);
    double max_t = -1e300;
    for (std::size_t c = 0; c < n; ++c) {
        s.core_temperature_c[c] = temps_[c];
        s.core_power_w[c] = last_core_power_w_[c];
        s.core_frequency_hz[c] = effective_frequency(c);
        max_t = std::max(max_t, temps_[c]);
    }
    s.max_core_temperature_c = max_t;
    result_.trace.push_back(std::move(s));
}

SimResult Simulator::run(Scheduler& scheduler) {
    if (ran_) throw std::logic_error("Simulator::run: already ran");
    ran_ = true;

    // Materialise tasks/threads sorted by arrival.
    std::stable_sort(specs_.begin(), specs_.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrival_s < b.arrival_s;
                     });
    tasks_.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        Task t;
        t.id = i;
        t.profile = specs_[i].profile;
        t.thread_count = specs_[i].thread_count;
        t.arrival_s = specs_[i].arrival_s;
        for (std::size_t r = 0; r < t.thread_count; ++r) {
            Thread th;
            th.id = threads_.size();
            th.task = i;
            th.role = r;
            t.threads.push_back(th.id);
            threads_.push_back(th);
        }
        tasks_.push_back(std::move(t));
    }
    thread_core_.assign(threads_.size(), kNone);
    task_energy_j_.assign(tasks_.size(), 0.0);

    scheduler.initialize(*this);

    const double dt = config_.micro_step_s;
    const std::size_t epoch_steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(config_.scheduler_epoch_s / dt)));
    if (config_.trace_interval_s > 0.0) next_trace_s_ = 0.0;

    std::size_t step = 0;
    while (now_ < config_.max_sim_time_s) {
        // Cooperative cancellation: one relaxed load per micro-step keeps a
        // hung or runaway run reapable by a supervisor (campaign deadline
        // watchdog) without any cost to the zero-allocation hot loop.
        if (cancel_ && cancel_->requested()) {
            const CancelReason reason = cancel_->reason();
            if (obs_)
                obs_->record({now_, obs::EventKind::kCancelled,
                              static_cast<std::uint32_t>(reason), 0, now_});
            throw CancelledError(
                reason, "Simulator: run cancelled (" +
                            std::string(to_string(reason)) + ") at t=" +
                            std::to_string(now_) + " s simulated");
        }
        // Inject newly arrived tasks.
        while (next_arrival_index_ < tasks_.size() &&
               tasks_[next_arrival_index_].arrival_s <= now_) {
            pending_.push_back(tasks_[next_arrival_index_].id);
            ++next_arrival_index_;
            offer_pending(scheduler);
        }
        apply_faults(scheduler);
        if (step % epoch_steps == 0) {
            refresh_noc_contention();
            offer_pending(scheduler);
            obs::ScopedPhase timer(obs_, obs::Phase::kSchedulerEpoch);
            scheduler.on_epoch(*this);
        }
        scheduler.on_step(*this);

        if (config_.trace_interval_s > 0.0 && now_ >= next_trace_s_) {
            record_trace_sample();
            next_trace_s_ += config_.trace_interval_s;
        }

        const linalg::Vector& core_power = compute_step_power();
        for (std::size_t c = 0; c < core_power.size(); ++c) {
            const double joules = core_power[c] * dt;
            result_.total_energy_j += joules;
            const ThreadId occupant = core_occupant_[c];
            if (occupant == kNone)
                result_.idle_energy_j += joules;
            else
                task_energy_j_[threads_[occupant].task] += joules;
        }
        advance_progress(dt);
        thermal_->pad_power_into(core_power, node_power_);
        {
            obs::ScopedPhase timer(obs_, obs::Phase::kMatexSolve);
            solver_->transient_into(temps_, node_power_, config_.ambient_c, dt,
                                   *ws_, temps_);
        }
        check_temperatures_sane();
        if (dtm_active_) result_.dtm_throttled_s += dt;
        if (watchdog_active_) result_.resilience.watchdog_throttled_s += dt;
        update_dtm();
        update_watchdog();
        resolve_phases_and_completions(scheduler);

        if (obs_steps_) obs_steps_->add();
        now_ = static_cast<double>(++step) * dt;

        const bool all_done =
            next_arrival_index_ == tasks_.size() && pending_.empty() &&
            std::all_of(tasks_.begin(), tasks_.end(),
                        [](const Task& t) { return t.finished; });
        if (all_done) break;
    }

    result_.simulated_time_s = now_;
    result_.all_finished = std::all_of(
        tasks_.begin(), tasks_.end(), [](const Task& t) { return t.finished; });
    double makespan = 0.0;
    for (const TaskResult& t : result_.tasks)
        makespan = std::max(makespan, t.finish_s);
    result_.makespan_s = makespan;
    if (injector_) {
        // A watchdog engaged at the end of the run still counts as an open
        // recovery interval.
        if (watchdog_active_)
            result_.resilience.worst_recovery_s =
                std::max(result_.resilience.worst_recovery_s,
                         now_ - watchdog_engaged_s_);
        result_.resilience.fault_log = injector_->log();
    }
    if (config_.trace_interval_s > 0.0) record_trace_sample();
    if (obs_) {
        // End-of-run gauges. Registration may allocate here; the run is over,
        // so the zero-allocation step contract is not in play.
        obs_->gauge("sim.peak_temperature_c").set(result_.peak_temperature_c);
        obs_->gauge("sim.peak_headroom_c")
            .set(config_.t_dtm_c - result_.peak_temperature_c);
        obs_->gauge("sim.energy_j").set(result_.total_energy_j);
        obs_->gauge("sim.makespan_s").set(result_.makespan_s);
        obs_->gauge("sim.migrations_per_s")
            .set(result_.simulated_time_s > 0.0
                     ? static_cast<double>(result_.migrations) /
                           result_.simulated_time_s
                     : 0.0);
    }
    return result_;
}

}  // namespace hp::sim
