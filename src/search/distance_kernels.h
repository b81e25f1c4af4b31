// Forwarding header for code outside src/ that predates the kernel layer's
// move below the encoder: the kernel dispatch now lives in
// kernels/kernels.h (namespace tsfm::kernels) and the flat top-k scans in
// search/scan.h. Code under src/ includes those directly.
#ifndef TSFM_SEARCH_DISTANCE_KERNELS_H_
#define TSFM_SEARCH_DISTANCE_KERNELS_H_

#include "kernels/kernels.h"
#include "search/scan.h"

namespace tsfm::search {

using kernels::Kernels;

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_DISTANCE_KERNELS_H_
