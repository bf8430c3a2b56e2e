/**
 * @file
 * Binary serialization of model configurations and weights, so
 * calibrated model pairs can be stored and reloaded instead of
 * regenerated (and, in a deployment, so real checkpoints could be
 * imported).
 *
 * Model format (little-endian, version 2):
 *   magic "SPIN", u32 version,
 *   config fields (u64/f32 in declaration order, name length-prefixed),
 *   embedding, per-layer tensors, final norm, lm head — each tensor
 *   as u64 rows, u64 cols, rows*cols f32; int8 models append their
 *   quantized layers and LM head.
 *
 * Weights stream straight from and to files; every other binary
 * format (journal, serving snapshot, IPC wire) goes through the
 * in-memory util::ByteWriter/ByteReader codec. A session's KV cache
 * is never serialized: it is a deterministic function of the
 * session's tokens, and recovery recomputes it.
 */

#ifndef SPECINFER_MODEL_SERIALIZATION_H
#define SPECINFER_MODEL_SERIALIZATION_H

#include <iosfwd>
#include <string>

#include "model/config.h"
#include "model/transformer.h"
#include "model/weights.h"

namespace specinfer {
namespace model {

/** Serialize config + weights to a stream. */
void saveModel(std::ostream &out, const ModelConfig &cfg,
               const ModelWeights &weights);

/** Load a model previously written by saveModel().
 *  Aborts (panic) on magic/version mismatch or truncated data. */
Transformer loadModel(std::istream &in);

/** Convenience: file-path variants. Fatal on I/O errors. */
void saveModelFile(const std::string &path, const Transformer &model);
Transformer loadModelFile(const std::string &path);

} // namespace model
} // namespace specinfer

#endif // SPECINFER_MODEL_SERIALIZATION_H
