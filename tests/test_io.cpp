// JSON I/O layer: parser/writer conformance, canonical number formatting,
// and the schema round-trip property — serialize→parse→serialize is a
// fixed point for every enum value, the default options, and every fault
// kind — plus malformed-input behaviour (structured errors, never a
// crash).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "vpd/common/error.hpp"
#include "vpd/common/rng.hpp"
#include "vpd/fault/fault_model.hpp"
#include "vpd/fault/transient_scenario.hpp"
#include "vpd/io/json.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/net/session.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/workload/droop_campaign.hpp"

namespace vpd {
namespace {

using io::Value;

// ---------------------------------------------------------------------------
// Value + writer
// ---------------------------------------------------------------------------

TEST(JsonValue, TypedAccessorsThrowStructuredErrors) {
  const Value v(42.0);
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.as_number(), 42.0);
  EXPECT_THROW(v.as_string(), InvalidArgument);
  EXPECT_THROW(v.as_array(), InvalidArgument);
  EXPECT_THROW(v.as_bool(), InvalidArgument);
  EXPECT_THROW(Value().as_number(), InvalidArgument);
}

TEST(JsonValue, ObjectPreservesInsertionOrderAndOverwritesInPlace) {
  Value v = Value::object();
  v.set("b", 1);
  v.set("a", 2);
  v.set("b", 3);  // overwrite keeps position
  EXPECT_EQ(io::dump(v), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(v.at("b").as_number(), 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), InvalidArgument);
}

TEST(JsonWriter, EscapesStringsAndFormatsContainers) {
  Value v = Value::object();
  v.set("s", "a\"b\\c\n\t\x01");
  Value arr = Value::array();
  arr.push_back(Value());
  arr.push_back(true);
  arr.push_back(false);
  v.set("a", arr);
  EXPECT_EQ(io::dump(v),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"a\":[null,true,false]}");
}

TEST(JsonWriter, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(io::dump_number(0.0), "0");
  EXPECT_EQ(io::dump_number(48.0), "48");
  EXPECT_EQ(io::dump_number(-3.0), "-3");
  EXPECT_EQ(io::dump_number(0.1), "0.1");
  EXPECT_EQ(io::dump_number(1e-12), "1e-12");
  EXPECT_THROW(io::dump_number(std::nan("")), InvalidArgument);
  EXPECT_THROW(io::dump_number(INFINITY), InvalidArgument);
  // Bit-exact round trip for awkward doubles.
  for (double x : {1.0 / 3.0, 2e-3, 1e300, 5e-324, 0.07000000000000001,
                   123456789.123456789, -2.2250738585072014e-308}) {
    EXPECT_EQ(std::strtod(io::dump_number(x).c_str(), nullptr), x) << x;
  }
}

// The printf/strtod number writer dump_number replaced, kept verbatim as
// the reference its output must match byte for byte.
std::string reference_dump_number(double value) {
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

TEST(JsonWriter, NumberWriterMatchesPrintfReferenceOnSeededDoubles) {
  Rng rng(20241017, 1);
  const auto bits = [&] {
    return (std::uint64_t{rng.next_u32()} << 32) | rng.next_u32();
  };
  const auto from_bits = [](std::uint64_t b) {
    double d;
    std::memcpy(&d, &b, sizeof d);
    return d;
  };
  std::vector<double> values = {0.0, -0.0, 5e-324, -5e-324,
                                2.2250738585072014e-308, 1.7976931348623157e308};
  // Random bit patterns (every exponent and sign), finite ones only.
  while (values.size() < 60000) {
    const double d = from_bits(bits());
    if (std::isfinite(d)) values.push_back(d);
  }
  // Subnormals: random mantissas under a zero exponent.
  for (int i = 0; i < 10000; ++i) {
    const double d = from_bits(bits() & 0x800fffffffffffffULL);
    values.push_back(d);
  }
  // Integers near +-2^53, where the integer form hands over to %.17g.
  for (std::int64_t k = -5000; k <= 5000; ++k) {
    const double d = 9007199254740992.0 + double(k);
    values.push_back(d);
    values.push_back(-d);
  }
  // Powers of ten, and their neighbours one ulp away.
  for (int e = -323; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    for (double d : {p, std::nextafter(p, 0.0), std::nextafter(p, INFINITY)}) {
      values.push_back(d);
      values.push_back(-d);
    }
  }
  // Uniform magnitudes the service actually prints (volts, watts, ohms).
  for (int i = 0; i < 20000; ++i) values.push_back(rng.uniform(-1e4, 1e4));
  ASSERT_GE(values.size(), 100000u);

  std::size_t differences = 0;
  for (double d : values) {
    const std::string got = io::dump_number(d);
    if (got != reference_dump_number(d)) {
      if (++differences <= 5) {
        ADD_FAILURE() << std::hexfloat << d << ": " << got << " vs "
                      << reference_dump_number(d);
      }
    }
  }
  EXPECT_EQ(differences, 0u) << "of " << values.size();
}

TEST(JsonValue, EncodedValueIsWrittenVerbatimAndExpandedWhenPretty) {
  Value tree = Value::object();
  tree.set("v", 1.5);
  Value list = Value::array();
  list.push_back(-0.0);
  list.push_back("x\n");
  list.push_back(1e-300);
  tree.set("list", list);
  const auto bytes = std::make_shared<const std::string>(io::dump(tree));
  const Value encoded = Value::encoded(bytes);
  EXPECT_TRUE(encoded.is_encoded());
  EXPECT_EQ(&encoded.as_encoded(), bytes.get());  // shared, not copied

  Value framed = Value::object();
  framed.set("id", 7);
  framed.set("result", encoded);
  Value expected = Value::object();
  expected.set("id", 7);
  expected.set("result", tree);
  EXPECT_EQ(io::dump(framed), io::dump(expected));
  EXPECT_EQ(io::dump_pretty(framed), io::dump_pretty(expected));
  EXPECT_EQ(io::dump_pretty(framed, 4), io::dump_pretty(expected, 4));

  // Equality is over the document denoted; parse never yields the kind.
  EXPECT_EQ(encoded, tree);
  EXPECT_EQ(tree, encoded);
  EXPECT_EQ(framed, expected);
  EXPECT_NE(encoded, Value(1.5));
  EXPECT_FALSE(io::parse(io::dump(framed)).at("result").is_encoded());
  EXPECT_EQ(io::parse(io::dump(framed)), expected);

  EXPECT_THROW(encoded.as_object(), InvalidArgument);
  EXPECT_EQ(encoded.find("v"), nullptr);
  EXPECT_THROW(tree.as_encoded(), InvalidArgument);
  EXPECT_THROW(Value::encoded(nullptr), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
  EXPECT_TRUE(io::parse("null").is_null());
  EXPECT_EQ(io::parse("true").as_bool(), true);
  EXPECT_EQ(io::parse(" -12.5e2 ").as_number(), -1250.0);
  EXPECT_EQ(io::parse("\"h\\u0065y \\uD83D\\uDE00\"").as_string(),
            "hey \xF0\x9F\x98\x80");
  const Value v = io::parse(R"({"a":[1,{"b":"c"}],"d":{}})");
  EXPECT_EQ(v.at("a").as_array()[1].at("b").as_string(), "c");
  EXPECT_EQ(v.at("d").size(), 0u);
}

TEST(JsonParser, DuplicateKeysLastWins) {
  EXPECT_EQ(io::parse(R"({"k":1,"k":2})").at("k").as_number(), 2.0);
}

/// Seconds io::parse takes on one object of `keys` distinct members;
/// best of 3.
double best_parse_seconds(std::size_t keys) {
  std::string line = "{";
  for (std::size_t k = 0; k < keys; ++k) {
    if (k > 0) line += ',';
    line += "\"key" + std::to_string(k) + "\":0";
  }
  line += '}';
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const Value v = io::parse(line);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_EQ(v.size(), keys);
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

TEST(JsonParser, ObjectParseTimeIsLinearInTheMemberCount) {
  // A duplicate-key scan over every earlier member costs ~N^2 / 2 key
  // compares, so 8x the members would take ~64x the time (measured ~90x:
  // 0.14 s at 10k keys, 12.5 s at 80k); indexing the keys takes ~8-13x.
  const double small = best_parse_seconds(10000);
  const double large = best_parse_seconds(80000);
  ASSERT_GT(small, 0.0);
  EXPECT_LT(large / small, 24.0)
      << "10k keys: " << small << " s, 80k keys: " << large << " s";
  // Duplicates past the indexed size keep the first position and the
  // last value.
  std::string line = "{";
  for (int k = 0; k < 40; ++k) line += "\"k" + std::to_string(k) + "\":1,";
  line += "\"k3\":7,\"k30\":8,\"k3\":9}";
  const Value v = io::parse(line);
  ASSERT_EQ(v.size(), 40u);
  EXPECT_EQ(v.as_object()[3].first, "k3");
  EXPECT_EQ(v.at("k3").as_number(), 9.0);
  EXPECT_EQ(v.as_object()[30].first, "k30");
  EXPECT_EQ(v.at("k30").as_number(), 8.0);
}

TEST(JsonParser, RoundTripsItsOwnOutput) {
  const std::string doc =
      R"({"s":"x\n","n":-0.125,"i":42,"a":[1,2,[3]],"o":{"k":null}})";
  const Value parsed = io::parse(doc);
  EXPECT_EQ(io::parse(io::dump(parsed)), parsed);
  EXPECT_EQ(io::parse(io::dump_pretty(parsed)), parsed);
}

TEST(JsonParser, MalformedInputThrowsParseErrorNotCrash) {
  const char* cases[] = {
      "",
      "{",
      "[1,2",
      "{\"a\":}",
      "{\"a\" 1}",
      "{\"a\":1,}",
      "[1,]",
      "tru",
      "nulll",
      "01",
      "1.",
      "1e",
      "+1",
      "-",
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"\\u12g4\"",
      "\"\\uD800\"",       // unpaired high surrogate
      "\"\\uDC00\"",       // unpaired low surrogate
      "\"ctrl \x01\"",
      "{\"a\":1} trailing",
      "1 2",
      "{\"a\":1e999}",     // overflows double
  };
  for (const char* text : cases) {
    EXPECT_THROW(io::parse(text), io::ParseError) << text;
  }
}

TEST(JsonParser, ParseErrorCarriesOffset) {
  try {
    io::parse("[1, fal]");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("byte 4"), std::string::npos);
  }
}

TEST(JsonParser, DeepNestingIsBoundedNotStackOverflow) {
  std::string deep(5000, '[');
  deep += std::string(5000, ']');
  EXPECT_THROW(io::parse(deep), io::ParseError);
}

// ---------------------------------------------------------------------------
// Schema round-trip fixed point
// ---------------------------------------------------------------------------

// serialize -> parse -> serialize must be the identity on serializations.
template <typename T, typename FromJson>
void expect_fixed_point(const T& value, FromJson from_json) {
  const std::string first = io::dump(io::to_json(value));
  const T reparsed = from_json(io::parse(first));
  const std::string second = io::dump(io::to_json(reparsed));
  EXPECT_EQ(first, second);
}

TEST(Schema, EnumsRoundTripStrictly) {
  for (ArchitectureKind kind : all_architectures()) {
    EXPECT_EQ(io::architecture_from_json(io::to_json(kind)), kind);
  }
  for (TopologyKind kind : all_topologies()) {
    EXPECT_EQ(io::topology_from_json(io::to_json(kind)), kind);
  }
  for (DeviceTechnology tech :
       {DeviceTechnology::kSilicon, DeviceTechnology::kGalliumNitride}) {
    EXPECT_EQ(io::technology_from_json(io::to_json(tech)), tech);
  }
  for (FaultKind kind :
       {FaultKind::kVrDropout, FaultKind::kVrDerate, FaultKind::kAttachFault,
        FaultKind::kMeshRegionFault, FaultKind::kStage2Dropout}) {
    EXPECT_EQ(io::fault_kind_from_json(io::to_json(kind)), kind);
  }
  EXPECT_THROW(io::architecture_from_json(Value("A7")), InvalidArgument);
  EXPECT_THROW(io::topology_from_json(Value("DSC")), InvalidArgument);
  EXPECT_THROW(io::technology_from_json(Value("SiC")), InvalidArgument);
  EXPECT_THROW(io::fault_kind_from_json(Value("meteor")), InvalidArgument);
  EXPECT_THROW(io::architecture_from_json(Value(1.0)), InvalidArgument);
}

TEST(Schema, RequestFixedPointForEveryEnumCombination) {
  const auto from = [](const Value& v) {
    return io::evaluation_request_from_json(v);
  };
  for (DeviceTechnology tech :
       {DeviceTechnology::kSilicon, DeviceTechnology::kGalliumNitride}) {
    {
      io::EvaluationRequest request;
      request.architecture = ArchitectureKind::kA0_PcbConversion;
      request.topology.reset();
      request.tech = tech;
      expect_fixed_point(request, from);
    }
    for (ArchitectureKind arch : all_architectures()) {
      if (arch == ArchitectureKind::kA0_PcbConversion) continue;
      for (TopologyKind topo : all_topologies()) {
        io::EvaluationRequest request;
        request.architecture = arch;
        request.topology = topo;
        request.tech = tech;
        expect_fixed_point(request, from);
      }
    }
  }
}

TEST(Schema, OptionsDefaultsRoundTripAsFixedPoint) {
  expect_fixed_point(EvaluationOptions{}, [](const Value& v) {
    return io::evaluation_options_from_json(v);
  });
  expect_fixed_point(PowerDeliverySpec{}, [](const Value& v) {
    return io::spec_from_json(v);
  });
  expect_fixed_point(FaultSeverity{}, [](const Value& v) {
    return io::fault_severity_from_json(v);
  });
}

TEST(Schema, IrDropPreconditionerRoundTripsEveryKindStrictly) {
  for (CgPreconditioner p :
       {CgPreconditioner::kJacobi, CgPreconditioner::kIncompleteCholesky,
        CgPreconditioner::kMultigrid}) {
    EvaluationOptions options;
    options.irdrop_preconditioner = p;
    const EvaluationOptions parsed =
        io::evaluation_options_from_json(io::to_json(options));
    EXPECT_EQ(parsed.irdrop_preconditioner, p) << to_string(p);
    expect_fixed_point(options, [](const Value& v) {
      return io::evaluation_options_from_json(v);
    });
  }
  // Absent field keeps the default (pre-preconditioner requests parse).
  Value bare = io::to_json(EvaluationOptions{});
  auto& members = bare.as_object();
  members.erase(std::remove_if(members.begin(), members.end(),
                               [](const Value::Member& m) {
                                 return m.first == "irdrop_preconditioner";
                               }),
                members.end());
  EXPECT_EQ(io::evaluation_options_from_json(bare).irdrop_preconditioner,
            EvaluationOptions{}.irdrop_preconditioner);
  // Unknown names are rejected with the full list of accepted spellings.
  Value bad = io::to_json(EvaluationOptions{});
  bad.set("irdrop_preconditioner", std::string("amg"));
  try {
    io::evaluation_options_from_json(bad);
    FAIL() << "unknown preconditioner name was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown irdrop_preconditioner"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("multigrid"), std::string::npos)
        << e.what();
  }
}

TEST(Schema, ErrorsQuoteABoundedPrefixOfTheClientString) {
  // A 1 MiB value names its field in a short error: the first
  // kQuotedBytes bytes and the value's length, never the value whole.
  const std::string huge(std::size_t{1} << 20, 'x');
  const auto expect_short = [&](const std::function<void()>& decode,
                                const char* field) {
    try {
      decode();
      ADD_FAILURE() << field << ": a 1 MiB value was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_LT(what.size(), 400u) << field;
      EXPECT_NE(what.find(field), std::string::npos) << what.substr(0, 200);
      EXPECT_NE(what.find("(1048576 bytes)"), std::string::npos)
          << what.substr(0, 200);
    }
  };
  expect_short([&] { io::architecture_from_json(Value(huge)); },
               "architecture");
  expect_short(
      [&] {
        Value options = io::to_json(EvaluationOptions{});
        options.set("irdrop_preconditioner", huge);
        io::evaluation_options_from_json(options);
      },
      "irdrop_preconditioner");
  expect_short(
      [&] {
        Value config = io::to_json(DroopCampaignConfig{});
        config.set("method", huge);
        io::droop_campaign_config_from_json(config);
      },
      "integration method");
  // Short values are still quoted whole, and a cut never splits a UTF-8
  // character.
  EXPECT_EQ(io::quote_for_error("A9"), "\"A9\"");
  const std::string accented = std::string(63, 'a') + "\xc3\xa9" + "tail";
  EXPECT_EQ(io::quote_for_error(accented),
            "\"" + std::string(63, 'a') + "...\" (69 bytes)");
}

TEST(Schema, EveryFaultKindScenarioRoundTrips) {
  for (FaultKind kind :
       {FaultKind::kVrDropout, FaultKind::kVrDerate, FaultKind::kAttachFault,
        FaultKind::kMeshRegionFault, FaultKind::kStage2Dropout}) {
    FaultScenario scenario;
    scenario.label = std::string("one-") + to_string(kind);
    Fault fault;
    fault.kind = kind;
    fault.site = 3;
    fault.x = Length{5e-3};
    fault.y = Length{7e-3};
    scenario.faults.push_back(fault);

    expect_fixed_point(scenario, [](const Value& v) {
      return io::fault_scenario_from_json(v);
    });

    // The lowered injection round-trips inside a full request too.
    io::EvaluationRequest request;
    request.architecture = ArchitectureKind::kA2_InterposerBelowDie;
    request.topology = TopologyKind::kDsch;
    request.options.faults = to_injection(scenario, FaultSeverity{});
    expect_fixed_point(request, [](const Value& v) {
      return io::evaluation_request_from_json(v);
    });
  }
}

TEST(Schema, SweepPointRoundTrips) {
  SweepPoint point;
  point.architecture = ArchitectureKind::kA3_TwoStage6V;
  point.topology = TopologyKind::kDpmih;
  point.tech = DeviceTechnology::kSilicon;
  point.options.mesh_nodes = 21;
  point.label = "A3@6V/DPMIH/Si";
  expect_fixed_point(point, [](const Value& v) {
    return io::sweep_point_from_json(v);
  });
}

TEST(Schema, ScenarioFormLowersToSameCanonicalKeyAsInjectionForm) {
  FaultScenario scenario;
  scenario.faults.push_back(Fault{FaultKind::kVrDropout, 2, {}, {}});
  io::EvaluationRequest explicit_form;
  explicit_form.architecture = ArchitectureKind::kA2_InterposerBelowDie;
  explicit_form.topology = TopologyKind::kDsch;
  explicit_form.options.faults = to_injection(scenario, FaultSeverity{});

  Value wire = io::to_json(explicit_form);
  wire.as_object().erase(
      std::find_if(wire.as_object().begin(), wire.as_object().end(),
                   [](const auto& m) { return m.first == "options"; }));
  wire.set("fault_scenario", io::to_json(scenario));
  const io::EvaluationRequest scenario_form =
      io::evaluation_request_from_json(wire);

  EXPECT_EQ(io::canonical_request_key(scenario_form),
            io::canonical_request_key(explicit_form));
}

TEST(Schema, CanonicalKeyIsInputOrderBlind) {
  const io::EvaluationRequest reference =
      io::evaluation_request_from_json(io::parse(
          R"({"architecture":"A1","topology":"DSCH","options":{"mesh_nodes":21,"derating":0.6}})"));
  const io::EvaluationRequest shuffled =
      io::evaluation_request_from_json(io::parse(
          R"({"options":{"derating":0.6,"mesh_nodes":21},"topology":"DSCH","architecture":"A1"})"));
  EXPECT_EQ(io::canonical_request_key(reference),
            io::canonical_request_key(shuffled));
}

// ---------------------------------------------------------------------------
// Transient droop campaigns
// ---------------------------------------------------------------------------

TEST(Schema, TransientScenarioRoundTripsForEveryKind) {
  for (TransientKind kind : all_transient_kinds()) {
    TransientScenario scenario;
    scenario.kind = kind;
    scenario.label = std::string("wire/") + to_string(kind);
    scenario.tile_x = 0.25;
    scenario.tile_y = 0.75;
    scenario.base_fraction = 0.6;
    scenario.step_fraction = 0.3;
    scenario.t_event = Seconds{3e-6};
    scenario.edge = Seconds{80e-9};
    scenario.site = 5;
    expect_fixed_point(scenario, [](const Value& v) {
      return io::transient_scenario_from_json(v);
    });
    // The enum name itself round-trips strictly.
    EXPECT_EQ(io::transient_kind_from_json(io::to_json(kind)), kind);
  }
  EXPECT_THROW(io::transient_kind_from_json(Value("load-stomp")),
               InvalidArgument);
}

TEST(Schema, TransientScenarioParserValidatesShapes) {
  // The parser runs validate(): a structurally well-formed document with
  // an out-of-range shape is InvalidArgument, not a silent acceptance.
  const char* cases[] = {
      R"({"kind":"load-step","tile_x":1.5})",
      R"({"kind":"load-step","base_fraction":0.9,"step_fraction":0.5})",
      R"({"kind":"load-burst","edge":2.01e-7,"burst_frequency":2e6,"burst_duty":0.4})",
      R"({"kind":"vr-dropout","edge":-1e-9})",
      R"({"kind":"no-such-kind"})",
  };
  for (const char* text : cases) {
    EXPECT_THROW(io::transient_scenario_from_json(io::parse(text)),
                 InvalidArgument)
        << text;
  }
}

TEST(Schema, ResilienceSpecRoundTrips) {
  ResilienceSpec rspec;
  rspec.droop_tolerance = 0.04;
  rspec.vr_overcurrent_factor = 1.3;
  rspec.interconnect_stress_margin = 1.1;
  rspec.transient_droop_tolerance = 0.12;
  expect_fixed_point(rspec, [](const Value& v) {
    return io::resilience_spec_from_json(v);
  });
}

TEST(Schema, DroopCampaignConfigRoundTrips) {
  DroopCampaignConfig config;
  config.method = IntegrationMethod::kBackwardEuler;
  config.t_stop = Seconds{10e-6};
  config.dt = Seconds{1e-9};
  config.tile_grid = 3;
  config.include_bursts = false;
  config.max_dropout_sites = 4;
  config.model.decap = Capacitance{40e-6};
  config.model.decap_esr = Resistance{0.1e-3};
  config.sweep.threads = 3;
  expect_fixed_point(config, [](const Value& v) {
    return io::droop_campaign_config_from_json(v);
  });
  // The default decap (auto-sized by the lowering) serializes as null and
  // parses back to "unset".
  DroopCampaignConfig defaults;
  EXPECT_FALSE(defaults.model.decap.has_value());
  expect_fixed_point(defaults, [](const Value& v) {
    return io::droop_campaign_config_from_json(v);
  });
  const DroopCampaignConfig reparsed =
      io::droop_campaign_config_from_json(io::to_json(defaults));
  EXPECT_FALSE(reparsed.model.decap.has_value());
}

TEST(Schema, TransientRequestRoundTripsAndKeyIsOrderBlind) {
  io::TransientRequest request;
  request.architecture = ArchitectureKind::kA2_InterposerBelowDie;
  request.topology = TopologyKind::kDpmih;
  request.tech = DeviceTechnology::kSilicon;
  request.options.mesh_nodes = 21;
  request.config.tile_grid = 1;
  expect_fixed_point(request, [](const Value& v) {
    return io::transient_request_from_json(v);
  });

  // Same request, shuffled member order and an envelope "cmd"/"id" the
  // schema reader must ignore: one canonical key.
  const io::TransientRequest reference = io::transient_request_from_json(
      io::parse(
          R"({"architecture":"A1","topology":"DSCH","config":{"tile_grid":1,"threads":2}})"));
  const io::TransientRequest shuffled = io::transient_request_from_json(
      io::parse(
          R"({"cmd":"transient","id":7,"config":{"threads":2,"tile_grid":1},"topology":"DSCH","architecture":"A1"})"));
  EXPECT_EQ(io::canonical_transient_key(reference),
            io::canonical_transient_key(shuffled));
}

TEST(Schema, CampaignThreadsAreBoundedByTheHardwareThreads) {
  // One request line must not make the daemon start more workers than the
  // machine has hardware threads: the transient and optimize verbs refuse
  // a larger "threads" count. Decoding starts no thread.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) GTEST_SKIP() << "hardware thread count unknown: no limit";
  const auto transient = [](std::size_t threads) {
    return io::transient_request_from_json(io::parse(
        R"({"architecture":"A1","topology":"DSCH","config":{"tile_grid":1,"threads":)" +
        std::to_string(threads) + "}}"));
  };
  const auto optimize = [](std::size_t threads) {
    return io::optimize_request_from_json(io::parse(
        R"({"cmd":"optimize","config":{"threads":)" +
        std::to_string(threads) + "}}"));
  };
  for (const std::size_t threads : {std::size_t{cores} + 1,
                                    std::size_t{1000000}}) {
    EXPECT_THROW(transient(threads), InvalidArgument) << threads;
    EXPECT_THROW(optimize(threads), InvalidArgument) << threads;
  }
  EXPECT_EQ(transient(cores).config.sweep.threads, cores);
  EXPECT_EQ(optimize(cores).config.sweep.threads, cores);
}

TEST(Schema, TransientRequestRejectsMeshlessAndFaultedForms) {
  // A0 has no distribution mesh to integrate.
  EXPECT_THROW(
      io::transient_request_from_json(io::parse(R"({"architecture":"A0"})")),
      InvalidArgument);
  // The campaign owns its fault injections: pre-faulted base options are
  // rejected rather than silently composed.
  EXPECT_THROW(io::transient_request_from_json(io::parse(
                   R"({"architecture":"A1","topology":"DSCH","options":{"faults":{"dropped_sites":[0]}}})")),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Malformed schema input: structured errors, never crashes
// ---------------------------------------------------------------------------

TEST(Schema, WrongTypesAndInvalidValuesAreInvalidArgument) {
  const char* cases[] = {
      R"({"architecture":"A1","topology":"DSCH","options":{"mesh_nodes":"41"}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"mesh_nodes":-1}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"mesh_nodes":2.5}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"cg_warm_start":"yes"}})",
      R"({"architecture":"A1","topology":null})",
      R"({"topology":"DSCH"})",
      R"({"architecture":"A1","topology":"DSCH","spec":{"die_voltage":-1}})",
      R"({"architecture":"A1","topology":"DSCH","fault_severity":{}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"faults":{"dropped_sites":[0]}},"fault_scenario":{"faults":[{"kind":"vr-dropout","site":0}]}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"faults":{"dropped_sites":[-1]}}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"faults":{"attach_scale":[{"site":0}]}}})",
      R"([1,2,3])",
      R"("A1")",
  };
  for (const char* text : cases) {
    EXPECT_THROW(io::evaluation_request_from_json(io::parse(text)),
                 InvalidArgument)
        << text;
  }
}

TEST(Schema, CountsBeyondTheUnsignedRangeAreRefusedNotWrapped) {
  // Counts stored as `unsigned` decoded modulo 2^32: WireFuzz found a
  // request for 2^53 + 1 periphery rings (or fixed final-stage VRs)
  // answered as one for 0, and the optimizer's counts share the decode —
  // a vr_count space of 2^32 + 36 .. 2^32 + 40 searched 36 .. 40.
  const char* requests[] = {
      R"({"architecture":"A2","topology":"DSCH","options":{"max_periphery_rings":9007199254740993}})",
      R"({"architecture":"A2","topology":"DSCH","options":{"fixed_final_stage_vrs":9007199254740993}})",
      R"({"architecture":"A2","topology":"DSCH","options":{"fixed_final_stage_vrs":4294967296}})",
  };
  for (const char* text : requests) {
    EXPECT_THROW(io::evaluation_request_from_json(io::parse(text)),
                 InvalidArgument)
        << text;
  }
  EXPECT_THROW(io::optimize_request_from_json(io::parse(
                   R"({"space":{"vr_count":{"lo":4294967332,"hi":4294967336}}})")),
               InvalidArgument);
  EXPECT_THROW(io::design_point_from_json(io::parse(
                   R"({"architecture":"A3@12V","topology":"DSCH","vr_count":4294967335})")),
               InvalidArgument);
  // The largest unsigned count still decodes unchanged.
  const io::EvaluationRequest largest = io::evaluation_request_from_json(
      io::parse(
          R"({"architecture":"A2","topology":"DSCH","options":{"max_periphery_rings":4294967295}})"));
  EXPECT_EQ(largest.options.max_periphery_rings, 4294967295u);
}

TEST(Schema, UnknownFieldsAreIgnoredNotErrors) {
  // v2 compatibility rule: a peer may send fields this build does not
  // know; they must parse as if absent, at every nesting level.
  const io::EvaluationRequest defaults;
  const char* cases[] = {
      R"({"architecture":"A1","topology":"DSCH","future_field":123})",
      R"({"architecture":"A1","topology":"DSCH","options":{"mesh_noodles":41}})",
      R"({"architecture":"A1","topology":"DSCH","optoins":{}})",
      R"({"architecture":"A1","topology":"DSCH","spec":{"color":"red"}})",
      R"({"architecture":"A1","topology":"DSCH","options":{"faults":{"exotic":[]}}})",
  };
  for (const char* text : cases) {
    const io::EvaluationRequest request =
        io::evaluation_request_from_json(io::parse(text));
    EXPECT_EQ(io::canonical_request_key(request),
              io::canonical_request_key(defaults))
        << text;
  }
}

TEST(Schema, SchemaVersionRoundTripsV1InV2Out) {
  // A v1 request (no schema_version) and its v2 form parse identically...
  const io::EvaluationRequest v1 = io::evaluation_request_from_json(
      io::parse(R"({"architecture":"A2","topology":"DSCH"})"));
  const io::EvaluationRequest v2 = io::evaluation_request_from_json(
      io::parse(
          R"({"schema_version":2,"architecture":"A2","topology":"DSCH"})"));
  EXPECT_EQ(io::canonical_request_key(v1), io::canonical_request_key(v2));
  // ...and the writer always stamps the current version.
  const Value out = io::to_json(v1);
  ASSERT_NE(out.find("schema_version"), nullptr);
  EXPECT_EQ(out.at("schema_version").as_number(),
            static_cast<double>(io::kSchemaVersion));
  // Explicit version 1 is accepted too (the field was introduced in v2,
  // but a cautious v1-era client may stamp it).
  EXPECT_NO_THROW(io::evaluation_request_from_json(io::parse(
      R"({"schema_version":1,"architecture":"A2","topology":"DSCH"})")));
}

TEST(Schema, UnsupportedSchemaVersionsAreRejected) {
  const char* cases[] = {
      R"({"schema_version":3,"architecture":"A1","topology":"DSCH"})",
      R"({"schema_version":0,"architecture":"A1","topology":"DSCH"})",
      R"({"schema_version":1.5,"architecture":"A1","topology":"DSCH"})",
      R"({"schema_version":"2","architecture":"A1","topology":"DSCH"})",
  };
  for (const char* text : cases) {
    EXPECT_THROW(io::evaluation_request_from_json(io::parse(text)),
                 InvalidArgument)
        << text;
  }
}

TEST(Schema, TruncatedDocumentsAreParseErrors) {
  io::EvaluationRequest request;
  request.architecture = ArchitectureKind::kA2_InterposerBelowDie;
  request.topology = TopologyKind::kDsch;
  request.options.faults.dropped_sites = {1, 4};
  const std::string full = io::canonical_request_key(request);
  for (std::size_t cut : {1ul, full.size() / 4, full.size() / 2,
                          full.size() - 1}) {
    EXPECT_THROW(io::parse(full.substr(0, cut)), io::ParseError) << cut;
  }
}

TEST(Schema, SinkMapCallbacksAreNotSerializable) {
  EvaluationOptions options;
  options.sink_map = [](const GridMesh& mesh, Current total) {
    Vector v(mesh.node_count(), 0.0);
    v[0] = total.value;
    return v;
  };
  EXPECT_THROW(io::to_json(options), InvalidArgument);
}


// ---------------------------------------------------------------------------
// Wire fuzzing: seeded mutations of valid lines for every verb
// ---------------------------------------------------------------------------

/// Valid request lines for every verb vpdd serves, in their short
/// hand-written forms and their full canonical forms.
std::vector<std::string> wire_corpus() {
  std::vector<std::string> corpus = {
      R"({"id":1,"architecture":"A1","topology":"DSCH"})",
      R"({"id":"a","cmd":"evaluate","architecture":"A3@12V","topology":"DSCH","spec":{"total_power":900},"options":{"mesh_nodes":21,"derating":0.65,"irdrop_preconditioner":"ic0","faults":{"dropped_sites":[0],"attach_scale":[{"site":1,"scale":2.5}]}}})",
      R"({"id":3,"architecture":"A2","topology":"DSCH","fault_scenario":{"label":"n-2","faults":[{"kind":"vr-dropout","site":3},{"kind":"mesh-region","x":0.002,"y":0.003},{"kind":"vr-derate","site":1}]},"fault_severity":{"mesh_conductance_scale":0.2}})",
      R"({"id":4,"cmd":"evaluate_batch","requests":[{"architecture":"A3@12V","topology":"DSCH","options":{"mesh_nodes":31}},{"architecture":"A3@12V","topology":"DSCH","options":{"mesh_nodes":31},"fault_scenario":{"faults":[{"kind":"stage2-dropout","site":0}]}}]})",
      R"({"id":5,"cmd":"transient","architecture":"A1","topology":"DSCH","options":{"mesh_nodes":21},"config":{"tile_grid":1,"include_bursts":false,"include_ramps":false,"max_dropout_sites":1,"threads":1}})",
      R"({"id":6,"cmd":"optimize","space":{"architectures":["A3@12V"],"topologies":["DSCH"],"vr_count":{"lo":36,"hi":40}},"config":{"population":4,"generations":1,"survivability":{"max_elites":1},"threads":1},"options":{"mesh_nodes":11}})",
      R"({"id":7,"cmd":"metrics"})",
      R"({"id":8,"cmd":"trace","path":"trace.json"})",
      R"({"id":9,"cmd":"shutdown"})",
  };
  // Full canonical forms: every field of the request on the wire.
  io::EvaluationRequest request;
  request.architecture = ArchitectureKind::kA2_InterposerBelowDie;
  request.topology = TopologyKind::kDsch;
  request.options.mesh_nodes = 21;
  request.options.faults.dropped_sites = {1, 4};
  request.options.faults.derates = {{2, VrDerate{0.5, 1.5}}};
  request.options.faults.mesh_perturbation.push_back(EdgeScaleRegion{
      Length{2e-3}, Length{3e-3}, Length{5e-3}, Length{6e-3}, 0.1});
  Value evaluate = io::to_json(request);
  evaluate.set("id", 10);
  corpus.push_back(io::dump(evaluate));
  Value transient = io::to_json(
      io::transient_request_from_json(io::parse(corpus[4])));
  transient.set("cmd", "transient");
  corpus.push_back(io::dump(transient));
  Value optimize =
      io::to_json(io::optimize_request_from_json(io::parse(corpus[5])));
  optimize.set("cmd", "optimize");
  corpus.push_back(io::dump(optimize));
  return corpus;
}

/// One seeded mutation: a bit flip, a truncation, a span deleted or
/// duplicated, a structural character or digit inserted, or a number
/// replaced by an edge value.
void mutate_wire_line(std::string& line, Rng& rng) {
  static const char kInserts[] = "{}[]\",:0123456789";
  static const char* const kEdgeNumbers[] = {"0", "-1", "1e308", "1e-320",
                                             "9007199254740993"};
  const auto pos = [&rng](std::size_t n) -> std::size_t {
    return n == 0 ? 0 : rng.next_below(static_cast<std::uint32_t>(n));
  };
  switch (rng.next_below(6)) {
    case 0:
      if (!line.empty()) {
        line[pos(line.size())] ^= static_cast<char>(1u << rng.next_below(8));
      }
      break;
    case 1:
      line.resize(pos(line.size() + 1));
      break;
    case 2:
      line.erase(pos(line.size()), 1 + rng.next_below(16));
      break;
    case 3: {
      const std::string span =
          line.substr(pos(line.size()), 1 + rng.next_below(32));
      line.insert(pos(line.size() + 1), span);
      break;
    }
    case 4:
      line.insert(pos(line.size() + 1), 1,
                  kInserts[rng.next_below(sizeof(kInserts) - 1)]);
      break;
    default: {
      std::size_t begin = line.find_first_of("-0123456789", pos(line.size()));
      if (begin == std::string::npos) begin = line.find_first_of("0123456789");
      if (begin == std::string::npos) break;
      while (begin > 0 &&
             std::strchr("+-.0123456789", line[begin - 1]) != nullptr) {
        --begin;
      }
      std::size_t end = line.find_first_not_of("+-.0123456789eE", begin);
      if (end == std::string::npos) end = line.size();
      line.replace(begin, end - begin, kEdgeNumbers[rng.next_below(5)]);
      break;
    }
  }
}

/// How vpdd reads one line: blank (no answer), malformed JSON or JSON the
/// schema rejects (both answered with an error), or a valid request.
enum class WireLine { kBlank, kMalformed, kRejected, kValid };

/// A property of the wire path that a fuzzed line broke.
class WireFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One request decoded from a wire line: the JSON it came from, its
/// re-encoding, its canonical key, and the decoder + key function again.
struct DecodedRequest {
  const Value* sent{nullptr};
  Value encoded;
  std::string key;
  std::function<std::string(const Value&)> rekey;
};

template <typename Request>
DecodedRequest decode_wire_request(
    const Value& sent, Request (*from_json)(const Value&),
    std::string (*canonical_key)(const Request&)) {
  const Request request = from_json(sent);
  DecodedRequest decoded;
  decoded.sent = &sent;
  decoded.encoded = io::to_json(request);
  decoded.key = canonical_key(request);
  decoded.rekey = [from_json, canonical_key](const Value& v) {
    return canonical_key(from_json(v));
  };
  return decoded;
}

/// The path of the first scalar the line set on a field the decoder knows
/// that its re-encoding does not repeat ("" when every one survives): a
/// decoder that accepts a value must not alter it.
std::string changed_field(const Value& sent, const Value& encoded,
                          const std::string& path) {
  if (sent.is_object() && encoded.is_object()) {
    for (const auto& [name, value] : sent.as_object()) {
      if (name == "schema_version") continue;  // v1 is answered as v2
      if (const Value* back = encoded.find(name)) {
        const std::string changed =
            changed_field(value, *back, path + "." + name);
        if (!changed.empty()) return changed;
      }
    }
  } else if (sent.is_array() && encoded.is_array() &&
             sent.size() == encoded.size()) {
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const std::string changed =
          changed_field(sent.as_array()[i], encoded.as_array()[i],
                        path + "[" + std::to_string(i) + "]");
      if (!changed.empty()) return changed;
    }
  } else if (sent.type() == encoded.type() && sent != encoded) {
    return path + ": sent " + io::dump(sent) + ", decoded " +
           io::dump(encoded);
  }
  return "";
}

/// vpdd's reading of one line without the work: parse, the decoder for
/// the line's verb (a decode error or an unknown cmd rejects it), then its
/// canonical key. Throws WireFault when an accepted request's key does not
/// parse and decode back to itself, changes when the line is re-encoded,
/// or the decoder altered a value the line set.
WireLine classify_wire_line(const std::string& line) {
  io::recover_wire_id(line);  // must never throw
  if (line.find_first_not_of(" \t\r") == std::string::npos) {
    return WireLine::kBlank;
  }
  Value doc;
  try {
    doc = io::parse(line);
  } catch (const Error&) {
    return WireLine::kMalformed;
  }
  std::vector<DecodedRequest> decoded;
  try {
    std::string cmd = "evaluate";
    if (const Value* requested = doc.find("cmd")) cmd = requested->as_string();
    if (cmd == "evaluate") {
      decoded.push_back(decode_wire_request(
          doc, io::evaluation_request_from_json, io::canonical_request_key));
    } else if (cmd == "evaluate_batch") {
      const Value* requests = doc.find("requests");
      if (requests == nullptr) return WireLine::kRejected;
      for (const Value& entry : requests->as_array()) {
        decoded.push_back(decode_wire_request(
            entry, io::evaluation_request_from_json,
            io::canonical_request_key));
      }
    } else if (cmd == "transient") {
      decoded.push_back(decode_wire_request(
          doc, io::transient_request_from_json,
          io::canonical_transient_key));
    } else if (cmd == "optimize") {
      decoded.push_back(decode_wire_request(
          doc, io::optimize_request_from_json, io::canonical_optimize_key));
    } else if (cmd == "trace") {
      if (const Value* path = doc.find("path")) path->as_string();
    } else if (cmd != "metrics" && cmd != "shutdown") {
      return WireLine::kRejected;
    }
  } catch (const Error&) {
    return WireLine::kRejected;
  }
  for (const DecodedRequest& request : decoded) {
    if (request.rekey(io::parse(request.key)) != request.key) {
      throw WireFault("canonical key does not round-trip: " + request.key);
    }
    if (request.rekey(io::parse(io::dump(*request.sent))) != request.key) {
      throw WireFault("canonical key changes when the line is re-encoded");
    }
    const std::string changed =
        changed_field(*request.sent, request.encoded, "");
    if (!changed.empty()) throw WireFault("decoding changed " + changed);
  }
  return WireLine::kValid;
}

TEST(WireFuzz, MutatedLinesAreNamedErrorsOrExactRoundTrips) {
  const std::vector<std::string> corpus = wire_corpus();
  for (const std::string& line : corpus) {
    ASSERT_EQ(classify_wire_line(line), WireLine::kValid) << line;
  }

  // The lines classed invalid go, in order, through one session, which
  // must answer each with exactly one error line. Valid lines are never
  // fed: a valid trace writes a file and a valid evaluation does work.
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);
  std::mutex mutex;
  std::size_t answered = 0;
  std::vector<std::string> not_errors;
  net::LineSession session(service, [&](const std::string& response) {
    std::lock_guard<std::mutex> lock(mutex);
    ++answered;
    if (response.find("\"status\":\"error\"") == std::string::npos &&
        not_errors.size() < 5) {
      not_errors.push_back(response);
    }
  });

  constexpr std::size_t kCases = 100000;
  Rng rng(0x9e3779b97f4a7c15ull, 5);
  std::size_t tally[4] = {0, 0, 0, 0};  // per WireLine
  std::size_t escaped = 0;
  for (std::size_t c = 0; c < kCases && escaped < 5; ++c) {
    std::string line = corpus[rng.next_below(
        static_cast<std::uint32_t>(corpus.size()))];
    for (std::uint32_t m = 1 + rng.next_below(3); m > 0; --m) {
      mutate_wire_line(line, rng);
    }
    WireLine verdict = WireLine::kBlank;
    try {
      verdict = classify_wire_line(line);
    } catch (const std::exception& e) {
      // A WireFault, or an exception that is no vpd::Error.
      ++escaped;
      ADD_FAILURE() << "case " << c << ": " << e.what() << "\n  on: " << line;
      continue;
    }
    ++tally[static_cast<int>(verdict)];
    if (verdict != WireLine::kMalformed && verdict != WireLine::kRejected) {
      continue;
    }
    ASSERT_TRUE(session.feed(line)) << line;
  }
  session.drain();
  ASSERT_EQ(escaped, 0u) << "the fuzzer stopped at the failures above";
  std::lock_guard<std::mutex> lock(mutex);
  const std::size_t malformed = tally[static_cast<int>(WireLine::kMalformed)];
  const std::size_t rejected = tally[static_cast<int>(WireLine::kRejected)];
  const std::size_t valid = tally[static_cast<int>(WireLine::kValid)];
  std::printf("wire fuzz: %zu malformed, %zu rejected, %zu valid, %zu blank\n",
              malformed, rejected, valid,
              tally[static_cast<int>(WireLine::kBlank)]);
  EXPECT_EQ(answered, malformed + rejected);
  for (const std::string& response : not_errors) {
    ADD_FAILURE() << "an invalid line was not answered with an error: "
                  << response;
  }
  // The mutations reach past the parser: a good share of the cases are
  // well-formed JSON that the schema must judge, and some of those it
  // accepts.
  EXPECT_GT(rejected, kCases / 10);
  EXPECT_GT(valid, kCases / 10);
}

}  // namespace
}  // namespace vpd
