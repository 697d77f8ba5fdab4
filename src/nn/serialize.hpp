// Binary (de)serialization of a ParamStore.
//
// Format: magic "NSYN", u32 version, u64 param count, then for each
// parameter u64 rows, u64 cols, rows*cols little-endian f32. Loading
// requires the target store to have identical shapes in identical order
// (models are rebuilt from the same config before loading).
#pragma once

#include <string>

#include "nn/autograd.hpp"

namespace netsyn::nn {

/// Writes every parameter to `path`. Throws std::runtime_error on I/O error.
void saveParams(const ParamStore& store, const std::string& path);

/// Loads parameters into `store` (shapes must match exactly).
/// Throws std::runtime_error on I/O error, shape/format mismatch, or bytes
/// after the last tensor.
void loadParams(ParamStore& store, const std::string& path);

}  // namespace netsyn::nn
