// Crash-safe versioned checkpoint file container.
//
// The daemon's durability contract — "no acknowledged update is ever lost" —
// rests on two properties of this container:
//
//   * Atomic replace: the checkpoint is written to a temporary file in the
//     same directory, fsync'd, and rename(2)'d over the target. A crash at
//     any instant leaves either the old complete checkpoint or the new
//     complete checkpoint, never a torn mix.
//   * Self-validation: magic + format version + FNV-1a checksum wrap the
//     payload. load_checkpoint() refuses anything that does not verify, so a
//     half-written temporary or a bit-rotted file surfaces as CheckError
//     (kCorruptData) and the daemon starts cold instead of resuming from
//     garbage.
//
// The payload itself is a SerialWriter token stream owned by the service
// layer (tenant registry, dedup ids, wire snapshot, and the allocator record:
// mode tag, id order, envy pool and one solver warm identity, with no LP
// model); this container only guarantees it arrives intact or not at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace oef::service {

/// Current checkpoint format version. Bump on any payload schema change;
/// load_checkpoint() rejects versions it does not know, so a file of an
/// earlier version stops oefd with exit 1 instead of being read.
inline constexpr std::uint64_t kCheckpointVersion = 3;

/// Writes `payload` to `path` atomically (tmp + fsync + rename). Throws
/// common::CheckError(kBadState) on I/O failure.
void write_checkpoint(const std::string& path, std::string_view payload);

/// Reads and validates a checkpoint. Returns nullopt when the file does not
/// exist (a cold start, not an error); throws common::CheckError
/// (kCorruptData) when it exists but fails magic/version/checksum.
[[nodiscard]] std::optional<std::string> load_checkpoint(const std::string& path);

}  // namespace oef::service
