#pragma once

// Shared assertion for the text decoders' error contract: malformed input
// throws std::runtime_error naming "<source>:<line>:".

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

/// Asserts @p decode throws std::runtime_error whose message contains
/// @p where (e.g. "tasks.txt:1:").
template <class Decode>
void expect_decode_error(Decode&& decode, const std::string& where) {
    try {
        decode();
        ADD_FAILURE() << "expected a decode error at " << where;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << e.what();
    }
}
