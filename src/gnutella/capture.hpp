#pragma once
// NeighborId and normalize_query live in the codec; perfbench/src/relay.cpp
// includes this header for them.
#include "gnutella/codec.hpp"
