// Seeded mutation suite over the advice server's wire protocol (DESIGN.md
// §13): hostile request and response payloads.
//
// Each case decodes seeded edits of encode_request/encode_response payloads:
// a flipped bit, a truncation, an extension by random bytes, and each
// length/count field forced to 0, to its cap, one past it and to
// UINT32_MAX. Every decode must either succeed, and then re-encode to the
// same bytes, or throw a ProtocolError whose what() starts with the
// "protocol.cpp:<line>:" of the check that fired; any other exception fails
// the test. The server-soak CI job runs this suite under TSan and under
// ASan+UBSan.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace {

using namespace hp::server;

constexpr int kSeedsPerEdit = 64;

/// One length/count field of a payload: its offset and width in bytes, and
/// the cap its decoder enforces (0: none beyond the payload size).
struct CountField {
    std::size_t offset;
    std::size_t width;
    std::uint32_t cap;
};

/// True when @p what starts with a path ending in "protocol.cpp:<line>:".
bool starts_with_protocol_line(const std::string& what) {
    const std::string key = "protocol.cpp:";
    const std::size_t at = what.find(key);
    if (at == std::string::npos || what.find(' ') < at) return false;
    std::size_t i = at + key.size();
    const std::size_t digits = i;
    while (i < what.size() && std::isdigit(static_cast<unsigned char>(what[i])))
        ++i;
    return i > digits && i < what.size() && what[i] == ':';
}

std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
    return {frame.begin() + 8, frame.end()};
}

void set_field(std::vector<std::uint8_t>& payload, const CountField& field,
               std::uint32_t value) {
    if (field.offset + field.width > payload.size()) return;
    if (field.width == 2) {
        const std::uint16_t v = static_cast<std::uint16_t>(value);
        std::memcpy(payload.data() + field.offset, &v, 2);
    } else {
        std::memcpy(payload.data() + field.offset, &value, 4);
    }
}

/// Every seeded edit of @p payload (whose count fields are @p fields).
std::vector<std::vector<std::uint8_t>> mutants(
    const std::vector<std::uint8_t>& payload,
    const std::vector<CountField>& fields) {
    std::vector<std::vector<std::uint8_t>> out;
    std::mt19937_64 rng(payload.size());
    for (int seed = 0; seed < kSeedsPerEdit; ++seed) {
        std::vector<std::uint8_t> flipped = payload;
        flipped[rng() % flipped.size()] ^=
            static_cast<std::uint8_t>(1u << rng() % 8);
        out.push_back(flipped);
        out.emplace_back(payload.begin(),
                         payload.begin() +
                             static_cast<long>(rng() % payload.size()));
        std::vector<std::uint8_t> extended = payload;
        for (std::size_t n = 1 + rng() % 16; n > 0; --n)
            extended.push_back(static_cast<std::uint8_t>(rng()));
        out.push_back(extended);
    }
    for (const CountField& field : fields)
        for (std::uint32_t value :
             {0u, field.cap, field.cap + 1, 0xffffffffu}) {
            std::vector<std::uint8_t> forced = payload;
            set_field(forced, field, value);
            out.push_back(forced);
        }
    return out;
}

/// Decodes every mutant of @p payload with @p decode, which returns the
/// re-encoded payload of what it decoded.
template <class Decode>
void run_mutants(const std::vector<std::uint8_t>& payload,
                 const std::vector<CountField>& fields, const Decode& decode,
                 std::size_t& rejected, std::size_t& accepted) {
    ASSERT_EQ(decode(payload), payload) << "encoder output must round-trip";
    for (const std::vector<std::uint8_t>& mutant : mutants(payload, fields)) {
        try {
            const std::vector<std::uint8_t> again = decode(mutant);
            EXPECT_EQ(again, mutant) << "a decoded mutant must re-encode";
            ++accepted;
        } catch (const ProtocolError& e) {
            EXPECT_TRUE(starts_with_protocol_line(e.what())) << e.what();
            ++rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "non-ProtocolError exception: " << e.what();
        }
    }
}

AdviceRequest make_request(std::string config, std::size_t threads,
                           std::size_t taus) {
    AdviceRequest request;
    request.config = std::move(config);
    for (std::size_t i = 0; i < threads; ++i)
        request.thread_power_w.push_back(1.0 + 0.5 * static_cast<double>(i));
    for (std::size_t i = 0; i < taus; ++i)
        request.tau_grid_s.push_back(1e-3 * static_cast<double>(i + 1));
    return request;
}

TEST(ServerProtocolMutation, Request) {
    const auto decode = [](const std::vector<std::uint8_t>& p) {
        std::vector<std::uint8_t> frame;
        encode_request(decode_request(p.data(), p.size()), frame);
        return payload_of(frame);
    };
    std::size_t rejected = 0, accepted = 0;
    for (const AdviceRequest& request :
         {make_request("paper_64core", 3, 2),
          make_request("paper_16core", 16, 0), make_request("", 0, 0)}) {
        std::vector<std::uint8_t> frame;
        encode_request(request, frame);
        // config_len:u16, then thread_count:u32 and tau_count:u32.
        const std::size_t threads_at = 2 + request.config.size();
        const std::size_t taus_at =
            threads_at + 4 + 8 * request.thread_power_w.size();
        run_mutants(payload_of(frame),
                    {{0, 2, kMaxConfigLen},
                     {threads_at, 4, kMaxThreads},
                     {taus_at, 4, kMaxTauGrid}},
                    decode, rejected, accepted);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}

TEST(ServerProtocolMutation, Response) {
    // Error responses decode into @p error and re-encode as errors.
    const auto decode = [](const std::vector<std::uint8_t>& p) {
        std::string error;
        const AdviceResponse response =
            decode_response(p.data(), p.size(), &error);
        std::vector<std::uint8_t> frame;
        if (p.front() == 1)
            encode_error_response(error, frame);
        else
            encode_response(response, frame);
        return payload_of(frame);
    };
    AdviceResponse ok;
    ok.rotation_on = 1;
    ok.thermally_safe = 1;
    ok.tau_s = 1e-3;
    ok.predicted_peak_c = 79.5;
    ok.error_bound_c = 0.25;
    ok.core_of_thread = {5, 9, 2};
    ok.peak_core_c = {70.0, 71.5, 72.25, 69.0};
    AdviceResponse empty;
    std::size_t rejected = 0, accepted = 0;
    for (const AdviceResponse& response : {ok, empty}) {
        std::vector<std::uint8_t> frame;
        encode_response(response, frame);
        // status, rotation_on, thermally_safe, three f64, thread_count:u32,
        // core_of_thread, core_count:u32.
        const std::size_t threads_at = 3 + 3 * 8;
        const std::size_t cores_at =
            threads_at + 4 + 4 * response.core_of_thread.size();
        run_mutants(payload_of(frame),
                    {{threads_at, 4, kMaxThreads}, {cores_at, 4, kMaxThreads}},
                    decode, rejected, accepted);
    }
    std::vector<std::uint8_t> frame;
    encode_error_response("protocol.cpp:1: no such config", frame);
    // status, then message_len:u32; no cap beyond the payload size.
    run_mutants(payload_of(frame), {{1, 4, 0}}, decode, rejected, accepted);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}

}  // namespace
