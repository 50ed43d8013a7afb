#include "paleo/explain.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace paleo {

namespace {

std::string Line(const char* label, const std::string& value) {
  std::string out = "  ";
  out += label;
  size_t pad = out.size() < 30 ? 30 - out.size() : 1;
  out.append(pad, ' ');
  out += value;
  out += '\n';
  return out;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", ms);
  return buf;
}

}  // namespace

std::string ExplainReport(const ReverseEngineerReport& report,
                          const Schema& schema,
                          const ExplainOptions& options) {
  std::string out;

  out += "Step 1 — candidate predicates (apriori over R')\n";
  out += Line("R' rows:", WithThousands(report.rprime_rows));
  out += Line("R' memory:",
              WithThousands(static_cast<int64_t>(report.rprime_bytes)) +
                  " bytes");
  out += Line("candidate predicates:",
              WithThousands(report.candidate_predicates));
  std::vector<std::string> by_size;
  for (size_t s = 1; s < report.predicates_by_size.size(); ++s) {
    by_size.push_back("|P|=" + std::to_string(s) + ": " +
                      std::to_string(report.predicates_by_size[s]));
  }
  if (!by_size.empty()) {
    out += Line("by size:", Join(by_size, ", "));
  }
  out += Line("extensions tried:", WithThousands(report.mining_extensions));
  out += Line("extensions rejected early:",
              WithThousands(report.mining_early_rejects));
  out += Line("distinct tuple sets:", WithThousands(report.tuple_sets));

  out += "Step 2 — ranking criteria (Figure 4 walk)\n";
  std::vector<std::string> techniques;
  if (report.ranking_info.used_top_entities) {
    techniques.push_back(
        "top-entity lists (" +
        std::to_string(report.ranking_info.top_entity_candidate_columns) +
        " candidate columns)");
  }
  if (report.ranking_info.used_histograms) {
    techniques.push_back(
        "histogram sampling (" +
        std::to_string(report.ranking_info.histogram_candidate_columns) +
        " candidate columns)");
  }
  if (report.ranking_info.used_fallback) {
    techniques.push_back("R' fallback");
  }
  out += Line("techniques:", techniques.empty() ? std::string("none")
                                                : Join(techniques, ", "));
  out += Line("criteria evaluated:",
              WithThousands(report.ranking_info.tuple_set_evaluations));
  out += Line("early rejects:",
              WithThousands(report.ranking_info.early_rejects));
  out += Line("candidate queries:",
              WithThousands(report.candidate_queries));

  out += "Step 3 — validation against R\n";
  out += Line("executions:", WithThousands(report.executed_queries));
  if (report.skip_events > 0) {
    out += Line("smart skips:", WithThousands(report.skip_events));
  }
  if (report.executions_aborted_early > 0) {
    out += Line("refuted by pre-pass:",
                WithThousands(report.refuted_by_prepass));
    out += Line("refuted by first-match goal:",
                WithThousands(report.refuted_by_first_match));
    out += Line("refuted by acceptance bounds:",
                WithThousands(report.refuted_by_bounds));
  }

  if (report.prefix_walks > 0 || report.prefix_fallbacks > 0) {
    out += Line("answered from rank prefixes:",
                WithThousands(report.prefix_walks) + ", fell back: " +
                    WithThousands(report.prefix_fallbacks));
  }

  if (report.termination != TerminationReason::kCompleted) {
    out += Line("stopped early:",
                TerminationReasonToString(report.termination));
  }

  if (report.found()) {
    out += "Result: " + std::to_string(report.valid.size()) +
           " valid quer" + (report.valid.size() == 1 ? "y" : "ies") + "\n";
    for (const ValidQuery& vq : report.valid) {
      out += "  " + vq.query.ToSql(schema) + "\n";
      out += Line("  found after:",
                  WithThousands(vq.executions_at_discovery) +
                      " executions");
    }
  } else {
    out += "Result: no valid query found\n";
  }

  if (!report.near_misses.empty()) {
    out += "Near misses (best candidates the budget never validated):\n";
    for (const CandidateQuery& cq : report.near_misses) {
      char score[64];
      std::snprintf(score, sizeof(score), "  s=%.3f  ", cq.suitability);
      out += score;
      out += cq.query.ToSql(schema) + "\n";
    }
  }

  if (options.show_candidates > 0 && !report.candidates.empty()) {
    out += "Top-scored candidates (suitability = (1 - P[fp]) x (1 - d)):\n";
    int n = std::min<int>(options.show_candidates,
                          static_cast<int>(report.candidates.size()));
    for (int i = 0; i < n; ++i) {
      const CandidateQuery& cq =
          report.candidates[static_cast<size_t>(i)];
      char score[96];
      std::snprintf(score, sizeof(score),
                    "  [%d] s=%.3f (P[fp]=%.3f, d=%.3f)  ", i + 1,
                    cq.suitability, cq.p_false_positive,
                    cq.ranking_distance);
      out += score;
      out += cq.query.ToSql(schema) + "\n";
    }
    if (static_cast<size_t>(n) < report.candidates.size()) {
      out += "  ... (" +
             WithThousands(static_cast<int64_t>(report.candidates.size()) -
                           n) +
             " more)\n";
    }
  }

  if (options.show_timings) {
    out += "Timings\n";
    out += Line("find predicates:",
                FormatMs(report.timings.find_predicates_ms));
    out += Line("find ranking:", FormatMs(report.timings.find_ranking_ms));
    out += Line("validation:", FormatMs(report.timings.validation_ms));
    out += Line("total:", FormatMs(report.timings.total_ms()));
  }

  if (options.show_trace && report.trace != nullptr &&
      !report.trace->empty()) {
    out += "Spans\n";
    const std::vector<obs::Span>& spans = report.trace->spans();
    // Arena order is creation order, so parents precede children and
    // the walk below renders the tree chronologically; depth comes
    // from the parent chain.
    std::vector<int> depth(spans.size(), 0);
    int rendered = 0;
    int64_t suppressed = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::Span& span = spans[i];
      if (span.parent >= 0) {
        depth[i] = depth[static_cast<size_t>(span.parent)] + 1;
      }
      if (rendered >= options.max_trace_spans) {
        ++suppressed;
        continue;
      }
      ++rendered;
      out += "  ";
      out.append(static_cast<size_t>(2 * depth[i]), ' ');
      out += span.name;
      out += "  " + std::string(FormatMs(span.duration_ms()));
      std::vector<std::string> attrs;
      for (const obs::SpanAttr& attr : span.attrs) {
        switch (attr.kind) {
          case obs::SpanAttr::Kind::kInt:
            attrs.push_back(attr.key + "=" + std::to_string(attr.i));
            break;
          case obs::SpanAttr::Kind::kDouble: {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%s=%.4g", attr.key.c_str(),
                          attr.d);
            attrs.push_back(buf);
            break;
          }
          case obs::SpanAttr::Kind::kString:
            attrs.push_back(attr.key + "=" + attr.s);
            break;
        }
      }
      if (!attrs.empty()) out += "  [" + Join(attrs, ", ") + "]";
      out += '\n';
    }
    if (suppressed > 0) {
      out += "  ... (" + WithThousands(suppressed) + " more spans)\n";
    }
  }
  return out;
}

}  // namespace paleo
