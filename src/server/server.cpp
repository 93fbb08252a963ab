#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "campaign/study_setup.hpp"
#include "core/peak_cache.hpp"
#include "exec/arena.hpp"
#include "server/protocol.hpp"

namespace hp::server {
namespace {

/// Dispatcher poll tick — also the stop-flag latency of every thread.
constexpr int kPollTickMs = 100;
/// After stop(): how long an open connection gets to reveal an in-flight
/// request before it is closed.
constexpr int kDrainGraceMs = 100;

const std::vector<double>& latency_bounds_us() {
    static const std::vector<double> bounds = {
        50.0,     100.0,    200.0,    500.0,     1000.0,    2000.0,
        5000.0,   10000.0,  20000.0,  50000.0,   100000.0,  200000.0,
        500000.0, 1000000.0};
    return bounds;
}

bool poll_fd(int fd, short events, int timeout_ms) {
    pollfd p{fd, events, 0};
    for (;;) {
        const int rc = ::poll(&p, 1, timeout_ms);
        if (rc > 0) return true;
        if (rc == 0) return false;
        if (errno != EINTR) return false;
    }
}

/// 1 = got all @p n bytes; 0 = clean EOF before the first byte (and
/// @p eof_ok); -1 = error, timeout, or EOF mid-buffer. The per-stall
/// @p timeout_ms budget only engages through the EAGAIN->poll path, which
/// requires the fd to be non-blocking (see accept4 in dispatcher_loop).
int read_full(int fd, std::uint8_t* buf, std::size_t n, bool eof_ok,
              int timeout_ms) {
    std::size_t got = 0;
    while (got < n) {
        const ssize_t rc = ::read(fd, buf + got, n - got);
        if (rc > 0) {
            got += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc == 0) return (got == 0 && eof_ok) ? 0 : -1;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!poll_fd(fd, POLLIN, timeout_ms)) return -1;
            continue;
        }
        return -1;
    }
    return 1;
}

bool write_full(int fd, const std::uint8_t* buf, std::size_t n,
                int timeout_ms) {
    std::size_t put = 0;
    while (put < n) {
        // MSG_NOSIGNAL: a client that hung up mid-response surfaces as
        // EPIPE (drop the connection), never as a process-killing SIGPIPE.
        const ssize_t rc = ::send(fd, buf + put, n - put, MSG_NOSIGNAL);
        if (rc > 0) {
            put += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc < 0 && errno == EINTR) continue;
        if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!poll_fd(fd, POLLOUT, timeout_ms)) return false;
            continue;
        }
        return false;
    }
    return true;
}

}  // namespace

/// One config tag's serving state: the read-only base bundle, per-NUMA-node
/// replicas (copy-on-first-use, as the campaign engine replicates
/// StudySetups) and the tag's shared lock-free prediction cache.
struct AdviceServer::ConfigState {
    struct NodeReplica {
        std::once_flag once;
        std::optional<AdviceBundle> bundle;
    };

    ConfigState(std::string tag_, AdviceBundle base_, std::size_t nodes)
        : tag(std::move(tag_)), base(std::move(base_)), replicas(nodes) {}

    std::string tag;
    AdviceBundle base;
    std::vector<NodeReplica> replicas;
    core::ConcurrentPeakCache cache;
};

/// Per-worker mutable state. Everything here belongs to exactly one worker
/// thread; the mutex only guards the metrics registry against concurrent
/// metrics() snapshots.
struct AdviceServer::WorkerState {
    mutable std::mutex obs_mutex;
    obs::MetricsRegistry registry;
    obs::Counter* requests = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* request_errors = nullptr;
    obs::Histogram* latency_us = nullptr;
    int node = -1;
    AdviceScratch* scratch = nullptr;  ///< points into worker_loop's frame
    std::vector<std::uint8_t> in_buf;
    std::vector<std::uint8_t> out_buf;
};

AdviceServer::AdviceServer(ServerConfig config) : config_(std::move(config)) {
    if (config_.socket_path.empty())
        throw std::invalid_argument("AdviceServer: socket_path is required");
    if (config_.threads == 0)
        throw std::invalid_argument(
            "AdviceServer: at least one worker thread");
    if (config_.configs.empty())
        throw std::invalid_argument(
            "AdviceServer: at least one config tag to serve");
    if (config_.io_timeout_ms <= 0)
        throw std::invalid_argument(
            "AdviceServer: io_timeout_ms must be positive");

    config_.exec.apply_env_overrides();
    topology_ = config_.exec.resolve_topology();
    placements_ =
        exec::plan_pinning(topology_, config_.threads, config_.exec.pin);
    int max_node = -1;
    for (const exec::WorkerPlacement& p : placements_)
        max_node = std::max(max_node, p.node);
    replicate_bundles_ =
        config_.exec.numa && topology_.multi_node() && max_node >= 0;
    const std::size_t replica_slots =
        replicate_bundles_ ? static_cast<std::size_t>(max_node) + 1 : 0;

    // Bundles first (the expensive part, and the part most likely to throw
    // on a bad tag) — nothing to unwind yet.
    for (const std::string& tag : config_.configs) {
        if (find_config(tag))
            throw std::invalid_argument(
                "AdviceServer: duplicate config tag '" + tag + "'");
        AdviceBundle base(campaign::StudySetup::by_name(tag, config_.solver),
                          config_.defaults);
        auto state = std::make_unique<ConfigState>(tag, std::move(base),
                                                   replica_slots);
        if (config_.cache_entries)
            state->cache.configure(config_.cache_entries,
                                   state->base.max_key_words());
        configs_.push_back(std::move(state));
    }

    for (std::size_t i = 0; i < config_.threads; ++i) {
        auto w = std::make_unique<WorkerState>();
        w->requests = &w->registry.counter("server.requests");
        w->protocol_errors =
            &w->registry.counter("server.errors.protocol");
        w->request_errors = &w->registry.counter("server.errors.request");
        w->latency_us =
            &w->registry.histogram("server.latency_us", latency_bounds_us());
        workers_.push_back(std::move(w));
    }

    // Socket + self-pipe. From here on, failures must unwind the fds.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument("AdviceServer: socket path longer than " +
                                    std::to_string(sizeof(addr.sun_path) - 1) +
                                    " bytes");
    std::memcpy(addr.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    struct stat st{};
    if (::lstat(config_.socket_path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode))
            throw std::runtime_error("AdviceServer: '" + config_.socket_path +
                                     "' exists and is not a socket");
        ::unlink(config_.socket_path.c_str());  // stale socket of a dead server
    }
    listen_fd_ =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error(std::string("AdviceServer: socket(): ") +
                                 std::strerror(errno));
    const auto fail = [&](const char* what) {
        const int err = errno;
        if (listen_fd_ >= 0) ::close(listen_fd_);
        if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
        if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
        ::unlink(config_.socket_path.c_str());
        throw std::runtime_error(std::string("AdviceServer: ") + what + ": " +
                                 std::strerror(err));
    };
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
        fail("bind()");
    if (::listen(listen_fd_, config_.listen_backlog) != 0) fail("listen()");
    if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) fail("pipe2()");

    started_at_ = std::chrono::steady_clock::now();
    try {
        dispatcher_ = std::thread([this] { dispatcher_loop(); });
        threads_.reserve(config_.threads);
        for (std::size_t i = 0; i < config_.threads; ++i)
            threads_.emplace_back([this, i] { worker_loop(i); });
    } catch (...) {
        // std::thread construction can throw under resource exhaustion.
        // ~AdviceServer never runs for a throwing constructor, so destroying
        // the still-joinable thread members would call std::terminate —
        // stop() joins whatever did start and releases the fds/socket file.
        stop();
        throw;
    }
}

AdviceServer::~AdviceServer() { stop(); }

AdviceServer::ConfigState* AdviceServer::find_config(const std::string& tag) {
    for (auto& state : configs_)
        if (state->tag == tag) return state.get();
    return nullptr;
}

const AdviceBundle& AdviceServer::bundle_for(ConfigState& state, int node) {
    if (!replicate_bundles_ || node < 0 ||
        static_cast<std::size_t>(node) >= state.replicas.size())
        return state.base;
    ConfigState::NodeReplica& replica =
        state.replicas[static_cast<std::size_t>(node)];
    // First worker on the node pays one deep copy (tables only, never an
    // eigensolve); first touch lands the pages node-local.
    std::call_once(replica.once,
                   [&] { replica.bundle.emplace(state.base.replicate()); });
    return *replica.bundle;
}

void AdviceServer::dispatcher_loop() {
    std::vector<int> idle;
    std::vector<pollfd> pfds;
    const auto collect_parked = [&] {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        idle.insert(idle.end(), parked_fds_.begin(), parked_fds_.end());
        parked_fds_.clear();
    };
    while (!stopping_.load(std::memory_order_acquire)) {
        collect_parked();
        pfds.clear();
        pfds.push_back({listen_fd_, POLLIN, 0});
        pfds.push_back({wake_pipe_[0], POLLIN, 0});
        for (int fd : idle) pfds.push_back({fd, POLLIN, 0});
        const int rc = ::poll(pfds.data(), pfds.size(), kPollTickMs);
        if (rc < 0 && errno != EINTR) {
            // Fatal poll error: fail the whole server, not just this loop.
            // Without stopping_ set, workers would wait forever on the
            // queue_cv_ predicate (it needs stopping_ && dispatcher_done_)
            // and running() would report true while nothing is accepted.
            stopping_.store(true, std::memory_order_release);
            break;
        }
        if (rc <= 0) continue;
        if (pfds[1].revents & POLLIN) {
            std::uint8_t drain[64];
            while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
            }
        }
        // Compact idle first (it is rebuilt from the polled entries), THEN
        // accept — a connection accepted this very tick must survive into
        // the next poll set, not be clobbered by the compaction.
        bool dispatched = false;
        std::size_t keep = 0;
        for (std::size_t i = 2; i < pfds.size(); ++i) {
            const int fd = pfds[i].fd;
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                std::lock_guard<std::mutex> lock(queue_mutex_);
                ready_fds_.push_back(fd);
                dispatched = true;
            } else {
                idle[keep++] = fd;
            }
        }
        idle.resize(keep);
        if (pfds[0].revents & POLLIN) {
            for (;;) {
                // SOCK_NONBLOCK is load-bearing: accepted sockets do NOT
                // inherit O_NONBLOCK from the listener, and the stall
                // timeout in read_full/write_full only engages via the
                // EAGAIN->poll path. A blocking fd would let one half-sent
                // frame park a worker in read() forever.
                const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                          SOCK_CLOEXEC | SOCK_NONBLOCK);
                if (cfd < 0) break;  // EAGAIN: accepted everything pending
                idle.push_back(cfd);
            }
        }
        if (dispatched) queue_cv_.notify_all();
    }

    // Shutdown sweep: in-flight requests (bytes already readable within the
    // grace window) are dispatched for a final answer; idle connections
    // close.
    collect_parked();
    if (!idle.empty()) {
        pfds.clear();
        for (int fd : idle) pfds.push_back({fd, POLLIN, 0});
        ::poll(pfds.data(), pfds.size(), kDrainGraceMs);
        std::lock_guard<std::mutex> lock(queue_mutex_);
        for (const pollfd& p : pfds) {
            if (p.revents & (POLLIN | POLLHUP | POLLERR))
                ready_fds_.push_back(p.fd);
            else
                ::close(p.fd);
        }
    }
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        dispatcher_done_ = true;
    }
    queue_cv_.notify_all();
}

void AdviceServer::worker_loop(std::size_t index) {
    WorkerState& worker = *workers_[index];
    const exec::WorkerPlacement place =
        index < placements_.size() ? placements_[index]
                                   : exec::WorkerPlacement{};
    worker.node = place.node;
    if (place.cpu >= 0) exec::pin_current_thread(place.cpu);
    // Shared-nothing worker scratch: every long-lived buffer (the
    // Algorithm-1 workspace above all) carved from an arena bound to the
    // worker's NUMA node, exactly as campaign workers do.
    exec::Arena arena(config_.exec.arena_block_bytes,
                      config_.exec.numa ? place.node : -1);
    exec::ArenaResource arena_mr(arena);
    AdviceScratch scratch(&arena_mr);
    worker.scratch = &scratch;

    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [&] {
                return !ready_fds_.empty() ||
                       (stopping_.load(std::memory_order_acquire) &&
                        dispatcher_done_);
            });
            if (ready_fds_.empty()) break;  // stopping and fully drained
            fd = ready_fds_.front();
            ready_fds_.pop_front();
        }
        bool keep = serve_one(fd, worker);
        if (stopping_.load(std::memory_order_acquire)) {
            // Drain: answer whatever this connection already has in flight,
            // then close it — never park during shutdown.
            while (keep && poll_fd(fd, POLLIN, kDrainGraceMs))
                keep = serve_one(fd, worker);
            ::close(fd);
            continue;
        }
        if (!keep) {
            ::close(fd);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            parked_fds_.push_back(fd);
        }
        const std::uint8_t one = 1;
        [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &one, 1);
    }
    worker.scratch = nullptr;
}

bool AdviceServer::serve_one(int fd, WorkerState& worker) {
    const int io_timeout_ms = config_.io_timeout_ms;
    std::uint8_t header[8];
    const int got =
        read_full(fd, header, sizeof header, /*eof_ok=*/true, io_timeout_ms);
    if (got == 0) return false;  // client hung up between requests
    worker.out_buf.clear();
    if (got < 0) return false;   // torn header / timeout: nothing to answer
    try {
        const std::uint32_t len = check_frame_header(header, kRequestMagic);
        worker.in_buf.resize(len);
        if (len != 0 && read_full(fd, worker.in_buf.data(), len,
                                  /*eof_ok=*/false, io_timeout_ms) != 1)
            return false;  // frame truncated on the wire
    } catch (const ProtocolError& e) {
        // Broken framing: report (with the protocol.cpp file:line of the
        // violated check) and drop the connection — the byte stream cannot
        // be resynchronised.
        {
            std::lock_guard<std::mutex> lock(worker.obs_mutex);
            worker.protocol_errors->add();
        }
        encode_error_response(e.what(), worker.out_buf);
        write_full(fd, worker.out_buf.data(), worker.out_buf.size(),
                   io_timeout_ms);
        return false;
    }

    const auto t0 = std::chrono::steady_clock::now();
    bool close_after = false;
    try {
        const AdviceRequest request =
            decode_request(worker.in_buf.data(), worker.in_buf.size());
        ConfigState* state = find_config(request.config);
        if (!state) {
            std::string known;
            for (const auto& s : configs_) {
                if (!known.empty()) known += ", ";
                known += s->tag;
            }
            throw std::invalid_argument("advise: config tag '" +
                                        request.config +
                                        "' not served (serving: " + known +
                                        ")");
        }
        const AdviceBundle& bundle = bundle_for(*state, worker.node);
        const AdviceResponse response =
            advise(bundle, request, *worker.scratch,
                   config_.cache_entries ? &state->cache : nullptr);
        encode_response(response, worker.out_buf);
    } catch (const ProtocolError& e) {
        // Malformed payload: answered, then closed (framing is suspect).
        {
            std::lock_guard<std::mutex> lock(worker.obs_mutex);
            worker.protocol_errors->add();
        }
        encode_error_response(e.what(), worker.out_buf);
        close_after = true;
    } catch (const std::exception& e) {
        // Semantically invalid request: answered; the connection (and its
        // framing) is intact, so it stays open.
        {
            std::lock_guard<std::mutex> lock(worker.obs_mutex);
            worker.request_errors->add();
        }
        encode_error_response(e.what(), worker.out_buf);
    }
    // Tally BEFORE writing the answer: once the response bytes hit the
    // socket a client may act on them — including reading the served-count
    // metrics — so an increment after the write could still be in flight.
    if (!close_after) {
        const double us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
        {
            std::lock_guard<std::mutex> lock(worker.obs_mutex);
            worker.requests->add();
            worker.latency_us->observe(us);
        }
        requests_total_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!write_full(fd, worker.out_buf.data(), worker.out_buf.size(),
                    io_timeout_ms))
        return false;
    return !close_after;
}

void AdviceServer::stop() {
    std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    if (stopped_) return;
    stopping_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        // (queue state untouched; the lock orders the flag with waiters)
    }
    queue_cv_.notify_all();
    const std::uint8_t one = 1;
    [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &one, 1);
    if (dispatcher_.joinable()) dispatcher_.join();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    // Workers only ever exit with the ready queue empty, but a worker that
    // raced the shutdown sweep may have parked one last connection.
    for (int fd : parked_fds_) ::close(fd);
    parked_fds_.clear();
    for (int fd : ready_fds_) ::close(fd);
    ready_fds_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    ::unlink(config_.socket_path.c_str());
    stopped_ = true;
}

obs::MetricsSnapshot AdviceServer::metrics() const {
    std::vector<obs::MetricsSnapshot> snaps;
    snaps.reserve(workers_.size() + 1);
    for (const auto& worker : workers_) {
        std::lock_guard<std::mutex> lock(worker->obs_mutex);
        snaps.push_back(worker->registry.snapshot());
    }
    obs::MetricsSnapshot merged = obs::merge(snaps);

    // Derived instruments: cache totals (shared, so read once here rather
    // than double-counted per worker) and the qps / latency-quantile gauges.
    obs::MetricsRegistry derived;
    std::uint64_t hits = 0, misses = 0, races = 0;
    for (const auto& state : configs_) {
        const core::ConcurrentPeakCache::Stats s = state->cache.stats();
        hits += s.hits;
        misses += s.misses;
        races += s.races;
    }
    derived.counter("server.cache_hits").add(hits);
    derived.counter("server.cache_misses").add(misses);
    derived.counter("server.cache_races").add(races);
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    const double requests =
        static_cast<double>(requests_total_.load(std::memory_order_relaxed));
    derived.gauge("server.uptime_s").set(uptime_s);
    derived.gauge("server.qps").set(uptime_s > 0.0 ? requests / uptime_s
                                                   : 0.0);
    for (const auto& h : merged.histograms) {
        if (h.name != "server.latency_us") continue;
        derived.gauge("server.latency_p50_us")
            .set(obs::Histogram::histogram_quantile(h.bounds, h.counts, 0.50));
        derived.gauge("server.latency_p99_us")
            .set(obs::Histogram::histogram_quantile(h.bounds, h.counts, 0.99));
    }
    snaps.clear();
    snaps.push_back(std::move(merged));
    snaps.push_back(derived.snapshot());
    return obs::merge(snaps);
}

}  // namespace hp::server
