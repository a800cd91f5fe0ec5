#include "eval/report.h"

#include "topo/ground_truth.h"
#include "util/table.h"

namespace tn::eval {

std::string subnets_csv(const VantageObservations& observations) {
  util::Table table({"prefix", "members", "pivot", "contra_pivot", "ingress",
                     "distance", "on_path", "stop"});
  for (const core::ObservedSubnet& subnet : observations.subnets) {
    std::string members;
    for (std::size_t i = 0; i < subnet.members.size(); ++i) {
      if (i) members += ' ';
      members += subnet.members[i].to_string();
    }
    table.add_row({subnet.prefix.to_string(), members,
                   subnet.pivot.to_string(),
                   subnet.contra_pivot ? subnet.contra_pivot->to_string() : "",
                   subnet.ingress ? subnet.ingress->to_string() : "",
                   std::to_string(subnet.pivot_distance),
                   subnet.on_trace_path ? "1" : "0",
                   std::string(core::to_string(subnet.stop))});
  }
  return table.render_csv();
}

std::string classification_csv(const Classification& classification) {
  util::Table table({"prefix", "profile", "match", "cause", "collected"});
  for (const SubnetVerdict& verdict : classification.verdicts) {
    std::string collected;
    for (std::size_t i = 0; i < verdict.collected_prefix_lengths.size(); ++i) {
      if (i) collected += ' ';
      collected += "/" + std::to_string(verdict.collected_prefix_lengths[i]);
    }
    const bool audited = verdict.match == MatchClass::kMissing ||
                         verdict.match == MatchClass::kUnderestimated;
    table.add_row({verdict.truth->prefix.to_string(),
                   topo::to_string(verdict.truth->profile),
                   to_string(verdict.match),
                   !audited ? ""
                   : verdict.caused_by_unresponsiveness ? "unresponsive"
                                                        : "heuristic",
                   collected});
  }
  return table.render_csv();
}

std::string render_distribution(const Classification& classification,
                                int min_prefix, int max_prefix) {
  std::vector<std::string> header = {"row"};
  for (int p = min_prefix; p <= max_prefix; ++p)
    header.push_back("/" + std::to_string(p));
  header.push_back("total");

  util::Table table(std::move(header));
  auto add = [&](const char* name, const Classification::Row& row) {
    std::vector<std::string> cells = {name};
    for (int p = min_prefix; p <= max_prefix; ++p) {
      const auto it = row.find(p);
      cells.push_back(std::to_string(it == row.end() ? 0 : it->second));
    }
    cells.push_back(std::to_string(classification.total(row)));
    table.add_row(std::move(cells));
  };
  add("orgl", classification.original);
  add("exmt", classification.exact);
  add("miss", classification.miss_heuristic);
  add("miss\\unrs", classification.miss_unresponsive);
  add("undes", classification.undes_heuristic);
  add("undes\\unrs", classification.undes_unresponsive);
  add("ovres", classification.overestimated);
  add("splt", classification.split);
  add("merg", classification.merged);
  return table.render();
}

}  // namespace tn::eval
