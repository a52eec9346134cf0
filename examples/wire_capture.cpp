// wire_capture: the paper's data-collection setup, end to end on the wire.
//
//   $ ./wire_capture
//
// A "modified Gnutella node" (gnutella::CaptureNode) is attached to a few
// neighbor connections.  We synthesize actual Gnutella 0.4 byte streams —
// QUERY and QUERYHIT descriptors, including a buggy client that reuses
// GUIDs — push them through the frame decoder and relay rules, and then run
// the recorded capture through the exact pipeline of the paper: database
// import, duplicate-GUID removal, query⋈reply join, rule mining, and the
// coverage/success measures.

#include <iostream>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "gnutella/capture.hpp"
#include "gnutella/codec.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace aar;
  using namespace aar::gnutella;

  // The capture node has four neighbor connections; neighbors 1 and 2
  // forward queries from their communities, neighbors 3 and 4 lead toward
  // content (jazz via 3, blues via 4).
  double clock = 0.0;
  CaptureNode node({1, 2, 3, 4}, [&clock] { return clock += 1e-4; });
  FrameDecoder decoders[5];  // one per neighbor connection

  util::Rng rng(2006);
  const char* kJazz[] = {"miles davis", "coltrane a love supreme",
                         "mingus ah um"};
  const char* kBlues[] = {"muddy waters", "howlin wolf", "bb king live"};

  std::uint64_t guid_counter = 0;
  WireGuid reused_guid = make_wire_guid(0xbadc0de);  // the buggy client

  std::size_t bytes_total = 0;
  for (int i = 0; i < 4'000; ++i) {
    const bool jazz = rng.chance(0.5);
    const NeighborId from = jazz ? 1 : 2;
    const NeighborId answer_via = jazz ? 3 : 4;
    const char* search = jazz ? kJazz[rng.index(3)] : kBlues[rng.index(3)];

    // ~1% of queries come from the client that re-uses its GUID.
    const WireGuid guid =
        rng.chance(0.01) ? reused_guid : make_wire_guid(++guid_counter);

    // Serialize to real wire bytes, feed through the per-connection decoder
    // (split into TCP-ish chunks), then hand to the relay.
    const auto query_bytes = serialize(make_query(guid, 7, 0, search));
    bytes_total += query_bytes.size();
    decoders[from].feed(query_bytes);
    while (auto message = decoders[from].next()) {
      node.on_message(from, *message);
    }

    // ~30% of queries are answered (the paper's reply rate).
    if (rng.chance(0.31)) {
      const auto hit_bytes = serialize(make_query_hit(
          guid, 7, make_wire_guid(0x5e77e47 + rng.below(50)),
          {{.file_index = static_cast<std::uint32_t>(rng.below(1'000)),
            .file_size = 3'141'592,
            .file_name = std::string(search) + ".mp3"}}));
      bytes_total += hit_bytes.size();
      decoders[answer_via].feed(hit_bytes);
      while (auto message = decoders[answer_via].next()) {
        node.on_message(answer_via, *message);
      }
    }
  }

  std::cout << "wire capture: " << bytes_total << " bytes decoded, "
            << node.queries_seen() << " queries and " << node.hits_seen()
            << " hits observed (" << node.duplicates_dropped()
            << " duplicate GUIDs dropped by the relay)\n";

  // The paper's pipeline over the captured tables.
  trace::Database& db = node.database();
  const std::uint64_t removed = db.deduplicate_queries();
  const std::uint64_t pairs = db.join();
  std::cout << "pipeline: " << removed << " duplicate query rows removed, "
            << pairs << " query-reply pairs joined\n\n";

  // Mine rules from the first half, evaluate on the second half.
  const auto all = db.pairs();
  const auto train = all.subspan(0, all.size() / 2);
  const auto test = all.subspan(all.size() / 2);
  const core::RuleSet rules = core::RuleSet::build(train, 10);
  const core::BlockMeasures quality = core::evaluate(rules, test);

  util::Table table({"rule", "support"});
  rules.for_each([&](core::HostId antecedent,
                     std::span<const core::Consequent> consequents) {
    for (const auto& consequent : consequents) {
      table.row({"{neighbor " + std::to_string(antecedent) +
                     "} -> {neighbor " + std::to_string(consequent.neighbor) +
                     "}",
                 std::to_string(consequent.support)});
    }
  });
  table.print(std::cout);
  std::cout << "\ncoverage = " << quality.coverage()
            << ", success = " << quality.success()
            << "  (queries from 1 route to 3, from 2 route to 4 — the rules"
               " recovered the\n interest structure straight off the wire)\n";
  return 0;
}
