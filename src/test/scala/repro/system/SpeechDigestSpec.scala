package repro.system

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.security.MessageDigest
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.VoiceData.DatasetSpec

/** "Same speeches" as a standing gate: every summary of a small fixed batch,
  * solved by each algorithm, hashed into one committed digest.
  *
  * The tables are seeded random relations (4 dims, cardinality ≤ 4, 200
  * rows, two targets), so the digest needs no Spark and no generated data.
  * A summary is hashed as its key, its fact scopes, the raw bits of each
  * typical value, each support, the raw bits of its utility and D(∅), and
  * its speech text. A deliberate change to speeches updates `expected` and
  * says why in CHANGES.md.
  */
class SpeechDigestSpec extends AnyFunSuite {

  private val targets = IndexedSeq("delay", "job_sat")

  private lazy val tables: Seq[EncodedTable] = Seq(21, 22, 23).map { seed =>
    val rnd = new Random(seed)
    val rel =
      if (seed % 2 == 0) TestUtil.randomRelationCont(rnd, 4, 4, 200)
      else TestUtil.randomRelation(rnd, 4, 4, 200)
    val second = rel.target.map(_ => rnd.nextDouble() * 100)
    TestUtil.table(rel, targets).copy(targetCols = Array(rel.target, second))
  }

  private def digest(algo: String): String = {
    val bytes = new ByteArrayOutputStream()
    val out = new DataOutputStream(bytes)
    tables.foreach { table =>
      val spec = DatasetSpec("digest", table.dimNames, targets, 0L,
        (_, _, _) => sys.error("digest tables are built without Spark"))
      val config = SummarizationConfig(spec, maxQueryLen = 2, maxExtraFactDims = 2, speechLength = 3)
      ProblemGenerator.problems(table, config).foreach { p =>
        Preprocessor.solve(table, p, config.maxExtraFactDims, config.speechLength, algo)
          .foreach { s =>
            out.writeUTF(s.key)
            s.facts.foreach { f =>
              out.writeUTF(f.scope.toSeq.sorted.mkString(","))
              out.writeLong(java.lang.Double.doubleToRawLongBits(f.typical))
              out.writeLong(f.support)
            }
            out.writeLong(java.lang.Double.doubleToRawLongBits(s.utility))
            out.writeLong(java.lang.Double.doubleToRawLongBits(s.baseError))
            out.writeUTF(s.speech)
          }
      }
    }
    out.flush()
    MessageDigest.getInstance("SHA-256").digest(bytes.toByteArray).map("%02x".format(_)).mkString
  }

  private val expected = Map(
    "gb" -> "3103abce4a5fcf22cee14d509bb1e2aa7f024873430555b1f132898f4bdbcdbc",
    "gp" -> "3103abce4a5fcf22cee14d509bb1e2aa7f024873430555b1f132898f4bdbcdbc",
    "go" -> "3103abce4a5fcf22cee14d509bb1e2aa7f024873430555b1f132898f4bdbcdbc",
    "exact" -> "a97ef8299aaf0aaed1d315827fe43c899db63dee6b38bd097b3ba82f593b8cdf")

  expected.foreach { case (algo, hash) =>
    test(s"$algo summaries of the seeded batch match the committed digest") {
      assert(digest(algo) == hash)
    }
  }
}
