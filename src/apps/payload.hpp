// Typed (de)serialisation of message payloads.  IP cores exchange real
// data (summation limits, FFT coefficients, MDCT spectra), so payloads are
// actual bytes — which is also what makes data upsets meaningful.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/expect.hpp"

namespace snoc {

class PayloadWriter {
public:
    template <typename T>
    PayloadWriter& put(T value) {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto old = bytes_.size();
        bytes_.resize(old + sizeof(T));
        std::memcpy(bytes_.data() + old, &value, sizeof(T));
        return *this;
    }

    PayloadWriter& put_f32(double value) { return put(static_cast<float>(value)); }

    std::vector<std::byte> take() { return std::move(bytes_); }
    std::size_t size() const { return bytes_.size(); }

private:
    std::vector<std::byte> bytes_;
};

class PayloadReader {
public:
    explicit PayloadReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

    template <typename T>
    T get() {
        static_assert(std::is_trivially_copyable_v<T>);
        SNOC_EXPECT(pos_ + sizeof(T) <= bytes_.size());
        T value;
        std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    double get_f32() { return static_cast<double>(get<float>()); }

    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool exhausted() const { return remaining() == 0; }

private:
    std::span<const std::byte> bytes_;
    std::size_t pos_{0};
};

} // namespace snoc
