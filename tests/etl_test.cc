#include <gtest/gtest.h>

#include "engine/cure.h"
#include "etl/csv.h"
#include "etl/dictionary.h"
#include "etl/loader.h"
#include "etl/schema_io.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "temp_dir.h"

namespace cure {
namespace etl {
namespace {

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Dictionary dict;
  EXPECT_EQ(dict.Encode("alpha"), 0u);
  EXPECT_EQ(dict.Encode("beta"), 1u);
  EXPECT_EQ(dict.Encode("alpha"), 0u);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Decode(1), "beta");
  auto found = dict.Lookup("beta");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 1u);
  EXPECT_FALSE(dict.Lookup("gamma").ok());
}

TEST(DictionaryTest, SerializeRoundTrip) {
  Dictionary dict;
  dict.Encode("x");
  dict.Encode("hello world");
  dict.Encode("");
  auto back = Dictionary::Deserialize(dict.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 3u);
  EXPECT_EQ(back->Decode(1), "hello world");
  EXPECT_EQ(back->Decode(2), "");
}

TEST(CsvTest, ParsesSimpleLines) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
  fields = ParseCsvLine("one");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 1u);
  fields = ParseCsvLine("a,,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[1], "");
}

TEST(CsvTest, ParsesQuotedFields) {
  auto fields = ParseCsvLine(R"("hello, world",plain,"say ""hi""")");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "hello, world");
  EXPECT_EQ((*fields)[1], "plain");
  EXPECT_EQ((*fields)[2], "say \"hi\"");
}

TEST(CsvTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("ab\"cd").ok());
}

TEST(CsvTest, ParsesDocumentWithCrlfAndBlankLines) {
  auto table = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][1], "4");
  auto col = table->Column("b");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, 1u);
  EXPECT_FALSE(table->Column("z").ok());
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(LoadSpecTest, ParsesFullSpec) {
  auto spec = ParseLoadSpec(
      "# comment\n"
      "dim region city country\n"
      "dim product sku\n"
      "measure price\n"
      "agg sum price\n"
      "agg count\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->dimensions.size(), 2u);
  EXPECT_EQ(spec->dimensions[0].level_columns,
            (std::vector<std::string>{"city", "country"}));
  EXPECT_EQ(spec->measure_columns, (std::vector<std::string>{"price"}));
  ASSERT_EQ(spec->aggregates.size(), 2u);
}

TEST(LoadSpecTest, DefaultAggregates) {
  auto spec = ParseLoadSpec("dim d a\nmeasure m\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->aggregates.size(), 2u);  // count + sum m
  EXPECT_EQ(spec->aggregates[0].function, "count");
  EXPECT_EQ(spec->aggregates[1].function, "sum");
}

TEST(LoadSpecTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseLoadSpec("").ok());
  EXPECT_FALSE(ParseLoadSpec("dim\n").ok());
  EXPECT_FALSE(ParseLoadSpec("bogus keyword\n").ok());
  EXPECT_FALSE(ParseLoadSpec("dim d a\nagg sum\n").ok());
}

constexpr char kCsv[] =
    "city,country,sku,cat,price\n"
    "paris,fr,a,food,10\n"
    "lyon,fr,b,tools,20\n"
    "rome,it,a,food,30\n"
    "paris,fr,b,tools,40\n";

constexpr char kSpec[] =
    "dim region city country\n"
    "dim product sku cat\n"
    "measure price\n"
    "agg sum price\n"
    "agg count\n";

TEST(LoaderTest, BuildsSchemaAndTable) {
  auto csv = ParseCsv(kCsv);
  ASSERT_TRUE(csv.ok());
  auto spec = ParseLoadSpec(kSpec);
  ASSERT_TRUE(spec.ok());
  auto loaded = LoadDataset(*csv, *spec);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->table.num_rows(), 4u);
  EXPECT_EQ(loaded->schema.num_dims(), 2);
  EXPECT_EQ(loaded->schema.dim(0).leaf_cardinality(), 3u);  // paris, lyon, rome
  EXPECT_EQ(loaded->schema.dim(0).cardinality(1), 2u);      // fr, it
  // Hierarchy map inferred: paris -> fr, rome -> it.
  const uint32_t paris = *loaded->dictionaries[0][0].Lookup("paris");
  const uint32_t fr = *loaded->dictionaries[0][1].Lookup("fr");
  EXPECT_EQ(loaded->schema.dim(0).CodeAt(paris, 1), fr);
}

TEST(LoaderTest, DetectsFunctionalDependencyViolation) {
  auto csv = ParseCsv(
      "city,country,price\n"
      "paris,fr,1\n"
      "paris,it,2\n");  // paris in two countries
  ASSERT_TRUE(csv.ok());
  auto spec = ParseLoadSpec("dim region city country\nmeasure price\n");
  ASSERT_TRUE(spec.ok());
  auto loaded = LoadDataset(*csv, *spec);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("functional dependency"),
            std::string::npos);
}

TEST(LoaderTest, RejectsNonIntegerMeasures) {
  auto csv = ParseCsv("a,m\nx,abc\n");
  ASSERT_TRUE(csv.ok());
  auto spec = ParseLoadSpec("dim d a\nmeasure m\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(LoadDataset(*csv, *spec).ok());
}

TEST(LoaderTest, RejectsUnknownColumns) {
  auto csv = ParseCsv("a,m\nx,1\n");
  ASSERT_TRUE(csv.ok());
  auto spec = ParseLoadSpec("dim d nosuch\nmeasure m\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(LoadDataset(*csv, *spec).ok());
}

TEST(LoaderTest, LoadedCubeAnswersCorrectly) {
  auto csv = ParseCsv(kCsv);
  auto spec = ParseLoadSpec(kSpec);
  ASSERT_TRUE(csv.ok() && spec.ok());
  auto loaded = LoadDataset(*csv, *spec);
  ASSERT_TRUE(loaded.ok());
  engine::CureOptions options;
  engine::FactInput input{.table = &loaded->table};
  auto cube = engine::BuildCure(loaded->schema, input, options);
  ASSERT_TRUE(cube.ok());
  auto engine = query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult(loaded->schema, loaded->table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()));
  }
}

TEST(SchemaIoTest, SerializeDeserializeRoundTrip) {
  auto csv = ParseCsv(kCsv);
  auto spec = ParseLoadSpec(kSpec);
  ASSERT_TRUE(csv.ok() && spec.ok());
  auto loaded = LoadDataset(*csv, *spec);
  ASSERT_TRUE(loaded.ok());
  const std::string text = SerializeSchema(loaded->schema);
  auto back = DeserializeSchema(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_dims(), loaded->schema.num_dims());
  EXPECT_EQ(back->num_aggregates(), loaded->schema.num_aggregates());
  for (int d = 0; d < back->num_dims(); ++d) {
    EXPECT_EQ(back->dim(d).name(), loaded->schema.dim(d).name());
    EXPECT_EQ(back->dim(d).num_levels(), loaded->schema.dim(d).num_levels());
    for (uint32_t leaf = 0; leaf < back->dim(d).leaf_cardinality(); ++leaf) {
      for (int l = 0; l < back->dim(d).num_levels(); ++l) {
        EXPECT_EQ(back->dim(d).CodeAt(leaf, l),
                  loaded->schema.dim(d).CodeAt(leaf, l));
      }
    }
  }
  EXPECT_FALSE(DeserializeSchema("garbage").ok());
}

TEST(SchemaIoTest, PersistedCubeReopensAndAnswers) {
  auto csv = ParseCsv(kCsv);
  auto spec = ParseLoadSpec(kSpec);
  ASSERT_TRUE(csv.ok() && spec.ok());
  auto loaded = LoadDataset(*csv, *spec);
  ASSERT_TRUE(loaded.ok());
  engine::CureOptions options;
  engine::FactInput input{.table = &loaded->table};
  auto cube = engine::BuildCure(loaded->schema, input, options);
  ASSERT_TRUE(cube.ok());
  const test::ScopedTempDir tmp("etl");
  const std::string cube_path = tmp.File("cube.bin");
  const std::string fact_path = tmp.File("fact.bin");
  ASSERT_TRUE((*cube)->mutable_store().PersistPacked(cube_path).ok());
  auto fact =
      storage::Relation::CreateFile(fact_path, loaded->table.RecordSize());
  ASSERT_TRUE(fact.ok());
  ASSERT_TRUE(loaded->table.WriteTo(&fact.value()).ok());
  ASSERT_TRUE(fact->Seal().ok());

  auto reopened = engine::CureCube::OpenPersisted(
      loaded->schema, cube_path, &fact.value());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto engine = query::CureQueryEngine::Create(reopened->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  const schema::NodeIdCodec& codec = (*reopened)->store().codec();
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult(loaded->schema, loaded->table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()));
  }
  ASSERT_TRUE(storage::RemoveFile(cube_path).ok());
  ASSERT_TRUE(storage::RemoveFile(fact_path).ok());
}

}  // namespace
}  // namespace etl
}  // namespace cure
